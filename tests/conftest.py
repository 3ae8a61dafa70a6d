import threading

import pytest


@pytest.fixture(autouse=True)
def no_worker_thread_outlives_its_test():
    """Fail a test that leaves a uwconvoy worker thread running."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("uwconvoy-")]
    assert left == [], f"worker threads still running: {left}"
