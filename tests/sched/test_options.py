"""``RunOptions``: the one record that carries a run's options.

Every option is checked once, when the record is built, whichever way a
caller hands it to the scheduler (``options=`` or keywords).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import VerifierConfig
from repro.core.property import RobustnessProperty
from repro.nn.builders import xor_network
from repro.sched import RunOptionError, RunOptions, Scheduler, VerificationJob
from repro.utils.boxes import Box


@pytest.fixture()
def jobs():
    return [
        VerificationJob(
            xor_network(),
            RobustnessProperty(
                Box(np.array([0.3, 0.3]), np.array([0.7, 0.7])), 1
            ),
            config=VerifierConfig(timeout=10.0),
        )
    ]


class TestValidation:
    @pytest.mark.parametrize("fields, field", [
        ({"workers": 0}, "workers"),
        ({"executor_kind": "gpu", "workers": 2}, "executor_kind"),
        ({"executor_kind": "serial", "workers": 2}, "workers"),
        ({"backend": "numpy16"}, "backend"),
        ({"escalation_margin": float("nan")}, "escalation_margin"),
        ({"abstraction": "exact"}, "abstraction"),
        ({"abstraction": "syntactic", "abstraction_level": 0},
         "abstraction_level"),
        ({"abstraction": "semantic", "abstraction_level": -3},
         "abstraction_level"),
    ], ids=lambda v: "-".join(f"{k}={x}" for k, x in v.items())
       if isinstance(v, dict) else v)
    def test_bad_value_names_its_field(self, fields, field):
        with pytest.raises(RunOptionError) as exc:
            RunOptions(**fields)
        assert exc.value.field == field
        assert isinstance(exc.value, ValueError)

    def test_level_unused_with_abstraction_off(self):
        assert RunOptions(abstraction_level=0).abstraction == "off"

    def test_library_rejects_level_zero_abstraction(self, jobs):
        with pytest.raises(ValueError, match="abstraction_level"):
            Scheduler(jobs, abstraction="syntactic", abstraction_level=0)

    def test_record_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            RunOptions().workers = 2


class TestSchedulerForms:
    def test_keywords_build_the_record(self, jobs):
        scheduler = Scheduler(jobs, backend="numpy32", escalation_margin=0.5)
        assert scheduler.options == RunOptions(
            backend="numpy32", escalation_margin=0.5
        )

    def test_both_forms_is_a_type_error(self, jobs):
        with pytest.raises(TypeError, match="not both"):
            Scheduler(jobs, options=RunOptions(), backend="numpy32")

    def test_forms_run_alike(self, jobs):
        options = RunOptions(backend="numpy32", precision_escalation=True)
        by_record = Scheduler(jobs, options=options).run()
        by_keywords = Scheduler(
            jobs, backend="numpy32", precision_escalation=True
        ).run()
        assert by_record.backend == by_keywords.backend == "numpy32"
        assert by_record.escalation and by_keywords.escalation
        assert [r.outcome.kind for r in by_record.results] == [
            r.outcome.kind for r in by_keywords.results
        ]

    def test_default_backend_is_the_callers(self, jobs):
        from repro.backend import use_backend

        with use_backend("numpy32"):
            scheduler = Scheduler(jobs)
        assert scheduler.options.backend is None
        assert scheduler.backend == "numpy32"
