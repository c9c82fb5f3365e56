from hypothesis import settings

# Derandomized and without an example database, so every run (CI or
# local) draws the same examples; no deadline, so a slow machine cannot
# turn a passing example into a failure.
settings.register_profile("fockladder", derandomize=True, database=None, deadline=None)
settings.load_profile("fockladder")
