"""``test_reply_phase`` once more, every fast run on the vector lane and
every step checked.

The reply phase's differential tests are collected here a second time;
the ``run_lane`` fixture (``tests/conftest.py``) reads this module's
``RUN_LANE``, so the same tests that run the reply and request runs on
the scalar lane in ``test_reply_phase`` run them on numpy tables here.
Their reply runs drive both residue resolvers, absorptions and spawn
splices, so ``checked_steps`` runs the run checker after every arrival
phase and free-flow jump of every run, the reference engine's included.
"""

import pytest

from test_reply_phase import *  # noqa: F401,F403

RUN_LANE = "vector"
pytestmark = pytest.mark.usefixtures("run_lane", "checked_steps")
