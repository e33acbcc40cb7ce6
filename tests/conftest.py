import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# CI runs the command-line fuzz test under this profile; tier-1 keeps
# Hypothesis' default profile
settings.register_profile("ci", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
