"""Shared test configuration: hypothesis budgets.

``pytest --hypothesis-profile=ci`` (CI's hypothesis-ci job) runs ten times
the examples of the default profile; tests that derive their budget from
the loaded profile, like the DB model machine, scale with it.
"""

from hypothesis import settings

settings.register_profile(
    "ci", max_examples=10 * settings.get_profile("default").max_examples
)
