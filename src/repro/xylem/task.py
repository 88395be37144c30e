"""Xylem processes and cluster tasks.

The primary structure Xylem adds to Unix is the *Xylem process*, made
up of one or more *cluster tasks* which can share portions of their
address space (Section 2).  The Cedar Fortran runtime creates one
helper task on each cluster other than the master cluster; within a
cluster, all 8 CEs are gang scheduled.
"""

from __future__ import annotations

import enum
from collections.abc import Generator

from repro.hardware.config import CedarConfig

__all__ = ["TaskKind", "ClusterTask", "XylemProcess", "create_process"]


class TaskKind(enum.Enum):
    """Role of a cluster task within its Xylem process."""

    #: The task the program started on (runs serial code and loops).
    MAIN = "main"
    #: A helper task created by the runtime on another cluster.
    HELPER = "helper"


class ClusterTask:
    """One gang-scheduled task bound to a cluster."""

    def __init__(self, task_id: int, cluster_id: int, kind: TaskKind) -> None:
        self.task_id = task_id
        self.cluster_id = cluster_id
        self.kind = kind

    @property
    def is_main(self) -> bool:
        """Whether this is the main task."""
        return self.kind is TaskKind.MAIN

    @property
    def name(self) -> str:
        """Paper-style task label: ``Main``, ``helper1``, ..."""
        if self.is_main:
            return "Main"
        return f"helper{self.task_id}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClusterTask {self.name} on cluster {self.cluster_id}>"


class XylemProcess:
    """A Xylem process: a main task plus helper tasks sharing memory."""

    def __init__(self, tasks: list[ClusterTask]) -> None:
        if not tasks or not tasks[0].is_main:
            raise ValueError("a Xylem process needs a main task first")
        self.tasks = tasks

    @property
    def main_task(self) -> ClusterTask:
        """The task the program started on (master cluster)."""
        return self.tasks[0]

    @property
    def helper_tasks(self) -> list[ClusterTask]:
        """Helper tasks, one per non-master cluster."""
        return self.tasks[1:]

    def task_on_cluster(self, cluster_id: int) -> ClusterTask:
        """The cluster task bound to *cluster_id*."""
        for task in self.tasks:
            if task.cluster_id == cluster_id:
                return task
        raise KeyError(f"no task on cluster {cluster_id}")


def create_process(config: CedarConfig, kernel) -> Generator:
    """Process: create the Xylem process for an application run.

    The main task starts on cluster 0; the runtime (with OS help)
    creates one helper task per additional cluster, each creation being
    a global system call.  Returns the :class:`XylemProcess`.
    """
    tasks = [ClusterTask(task_id=0, cluster_id=0, kind=TaskKind.MAIN)]
    for cluster_id in range(1, config.n_clusters):
        yield from kernel.global_syscall(0)
        tasks.append(ClusterTask(task_id=cluster_id, cluster_id=cluster_id, kind=TaskKind.HELPER))
    return XylemProcess(tasks)
