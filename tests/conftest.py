from hypothesis import settings

# Every run of the suite draws the same examples, so a property's verdict is
# a fact about the code, not about one run's draws. A test's own @settings
# still override the profile's other values. The deep profile, selected with
# --hypothesis-profile=deep, draws ten times the default number of examples,
# the same ones on every run.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("deep", derandomize=True, max_examples=1000)
settings.load_profile("derandomized")
