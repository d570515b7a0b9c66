"""Hypothesis profiles for the test suite.

``--hypothesis-profile=long`` raises the example budget of every
property that leaves it to the profile (those whose ``@settings`` name
no ``max_examples``); the CI fault group runs the rope property of
``tests/property/test_vfs_property.py`` this way.
"""

from hypothesis import settings

settings.register_profile("long", max_examples=3000, deadline=None)
