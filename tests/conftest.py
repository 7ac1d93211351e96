"""Hypothesis runs derandomized with no deadline, so property tests draw
the same examples on every run and never fail on a slow host.  The
helpers below let a test choose how many CPUs the fork runner sees and
count its forks."""

import os

from hypothesis import settings

settings.register_profile("halinloop", derandomize=True, deadline=None, database=None)
settings.load_profile("halinloop")


def _allow_cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


def _count_forks(monkeypatch):
    forks = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real())
    return forks
