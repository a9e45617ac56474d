from hypothesis import settings

# Every run of the suite draws the same examples, so a property's verdict is
# a fact about the code, not about one run's draws. A test's own @settings
# still override the profile's other values.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
