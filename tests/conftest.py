"""The suite's one hypothesis policy: no deadline, since a property's
examples vary in size and run on shared machines.  Each test sets only its
``max_examples``."""

from hypothesis import settings

settings.register_profile("soclab", deadline=None)
settings.load_profile("soclab")
