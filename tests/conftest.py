"""Suite-wide settings. Hypothesis prints a @reproduce_failure line for
every failing random draw, so a failure seen once can be replayed; what
runs is unchanged."""

from hypothesis import settings

settings.register_profile("ergopump", print_blob=True)
settings.load_profile("ergopump")
