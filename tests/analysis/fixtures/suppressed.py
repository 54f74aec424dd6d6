"""Fixture: the suppression pragma in all three states."""


def justified(staging, writers):
    try:
        run_scan(writers)
    except Exception:  # repro-lint: disable=resource-lifecycle -- fixture: the narrow handler is the point
        staging.abandon_file(writers)
        raise


def unjustified(staging, writers):
    try:
        run_scan(writers)
    except Exception:  # repro-lint: disable=resource-lifecycle
        staging.abandon_file(writers)
        raise


def unused(path):
    handle = open(path)  # repro-lint: disable=resource-lifecycle -- never matches: the handle escapes to the caller
    return handle


def run_scan(writers):
    raise RuntimeError("scan failed")
