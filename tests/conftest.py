from hypothesis import settings

# property tests draw the same examples on every run, and keep no example
# database
settings.register_profile("derandomized", derandomize=True, deadline=None,
                          database=None)
