"""``test_reply_phase`` once more, every fast run on the vector lane.

The reply phase's differential tests are collected here a second time;
the ``run_lane`` fixture (``tests/conftest.py``) reads this module's
``RUN_LANE``, so the same tests that run the reply and request runs on
the scalar lane in ``test_reply_phase`` run them on numpy tables here.
"""

from test_reply_phase import *  # noqa: F401,F403

RUN_LANE = "vector"
