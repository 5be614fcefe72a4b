from hypothesis import settings

# Every property test draws the same examples on every run: examples derive
# from the test itself, and no example database replays earlier failures.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
