"""The environment of a fresh interpreter that a test starts: it imports
coxline from where the test's own interpreter did, installed or not."""

import os

import coxline

SRC = os.path.dirname(os.path.dirname(os.path.abspath(coxline.__file__)))


def child_env() -> dict:
    """os.environ with the directory that holds coxline first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
