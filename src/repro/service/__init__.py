"""Routing service: job-queue daemon + SQLite result repository.

The architecture step from a one-shot CLI to concurrent many-user
traffic: ``locusroute serve`` runs a daemon that accepts routing /
simulation / experiment jobs over JSON/HTTP, deduplicates identical
work by content-addressed fingerprint, executes on the harness's
salvage process pool, and persists every run into a queryable SQLite
repository.  That repository is the package's one result store:
``locusroute experiment --db`` keeps its experiments and simulation
rows in the same file, so an experiment either side stored is a hit
for the other.
See docs/SERVICE.md.
"""

from .client import ServiceClient
from .daemon import DEFAULT_PORT, RoutingService, ServiceServer, serve
from .jobs import JOB_KINDS, JobSpec, execute_job, job_fingerprint, job_key
from .repository import REPOSITORY_SCHEMA, Repository

__all__ = [
    "DEFAULT_PORT",
    "JOB_KINDS",
    "JobSpec",
    "REPOSITORY_SCHEMA",
    "Repository",
    "RoutingService",
    "ServiceClient",
    "ServiceServer",
    "execute_job",
    "job_fingerprint",
    "job_key",
    "serve",
]
