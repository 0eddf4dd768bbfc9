from hypothesis import settings

# Every property test draws the same examples on every run, so tier-1
# results do not depend on the run; deadlines are off because a numpy call's
# first run can be slow on a loaded machine.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
