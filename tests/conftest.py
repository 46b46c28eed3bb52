"""Settings shared by the test modules."""

from hypothesis import settings

# Property tests run a fixed, bounded set of generated cases, so that the
# suite gives the same verdict on every run and stays fast.
settings.register_profile("tier1", derandomize=True, database=None, max_examples=60,
                          deadline=None)
settings.load_profile("tier1")
