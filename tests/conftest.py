import concurrent.futures

import pytest


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of each process pool a sweep starts, in start order."""
    started = []

    class SpyPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SpyPool)
    return started
