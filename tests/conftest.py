"""One hypothesis profile for the whole suite: derandomized draws, no
example database and no deadline, so every run draws the same examples."""

from hypothesis import settings

settings.register_profile("dyncs", derandomize=True, deadline=None, database=None)
settings.load_profile("dyncs")
