"""The calibration-fingerprint memo and the frozen calibration it rests on.

Contracts under test:

* ``Device.calibration_fingerprint`` (memoised process-wide on the static
  calibration digest plus the registration log) equals the unmemoised
  formula ``_calibration_digest`` after every registration step, on
  synthetic line/ring/grid devices, Sycamore and Aspen-8, with and
  without noise variation, for int and float scales;
* every fingerprint reproduces a digest captured before the memo existed
  (``tests/golden/calibration_digests.json``): the design-study device
  states, Sycamore and Aspen-8;
* two fresh devices replaying one log share a digest, and one differing
  static entry, provided rate or scale spelling gives a different one;
* a bound noise model rejects every write, and the device rejects
  reassigning what the fingerprint covers;
* deepcopy and pickle keep the digest, and the copy registers
  independently of the original;
* ``clear_experiment_caches()`` empties the memo, the memo stays within
  its LRU bound, and threads sharing it never read a wrong digest.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import sys
import threading
from pathlib import Path

import pytest

from repro.circuits.hashing import FrozenTable, hash_mapping
from repro.devices import device as device_module
from repro.devices.aspen8 import aspen8_device
from repro.devices.device import Device, GateErrorDistribution, _calibration_digest
from repro.devices.sycamore import sycamore_device
from repro.devices.synthetic import synthetic_device
from repro.devices.topology import line_topology
from repro.experiments.engine import clear_experiment_caches
from repro.simulators.noise_model import NoiseModel

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "calibration_digests.json").read_text()
)

STEPS = (("cz", 1.0), ("syc", 2), ("fsim(1.570796,0.000000)", 2.0), ("cz", 1.5))
"""A registration log with int and float scales and one re-registration."""


def _factories():
    return {
        "line": lambda: synthetic_device(4, "line", seed=3),
        "ring": lambda: synthetic_device(5, "ring", seed=3),
        "grid": lambda: synthetic_device(6, "grid", seed=3),
        "line-flat": lambda: synthetic_device(4, "line", seed=3, noise_variation=False),
        "sycamore": sycamore_device,
        "sycamore-flat": lambda: sycamore_device(noise_variation=False),
        "aspen8": aspen8_device,
        "aspen8-flat": lambda: aspen8_device(noise_variation=False),
    }


@pytest.fixture(autouse=True)
def _empty_memo():
    clear_experiment_caches()
    yield
    clear_experiment_caches()


def _replay(device, steps):
    """Fingerprint after construction and after every registration."""
    digests = [device.calibration_fingerprint()]
    for type_key, scale in steps:
        device.register_gate_type(type_key, scale=scale)
        digests.append(device.calibration_fingerprint())
    return digests


class TestMemoEqualsFormula:
    @pytest.mark.parametrize("name", sorted(_factories()))
    def test_every_step_cold_and_warm(self, name):
        factory = _factories()[name]
        for _ in range(2):  # first pass fills the memo, second pass hits it
            device = factory()
            assert device.calibration_fingerprint() == _calibration_digest(device)
            for type_key, scale in STEPS:
                device.register_gate_type(type_key, scale=scale)
                assert device.calibration_fingerprint() == _calibration_digest(device)

    def test_explicit_error_rates(self):
        device = aspen8_device()
        rates = {(1, 0): 0.2, (3, 2): 0.04}
        device.register_gate_type("xy(0.785398)", error_rates=rates, scale=2)
        assert device.calibration_fingerprint() == _calibration_digest(device)
        assert device.gate_fidelity("xy(0.785398)", (0, 1)) == pytest.approx(0.6)
        assert device.registration_log[-1] == (
            "xy(0.785398)",
            2,
            (((0, 1), 0.4), ((2, 3), 0.08)),
        )

    def test_unseeded_device_skips_the_memo(self):
        device = synthetic_device(4, "line", seed=None)
        device.register_gate_type("cz")
        assert device.calibration_fingerprint() == _calibration_digest(device)
        assert len(device_module._CALIBRATION_MEMO) == 0


class TestGoldenDigests:
    @pytest.mark.parametrize(
        "state",
        GOLDEN["design"],
        ids=[f"{s['application']}-{s['catalogue']}" for s in GOLDEN["design"]],
    )
    def test_design_study_states(self, state):
        for _ in range(2):  # cold memo, then warm memo
            device = synthetic_device(state["num_qubits"], "line", seed=7)
            steps = [(type_key, scale) for type_key, scale, _ in state["steps"]]
            assert _replay(device, steps) == [state["fresh"]] + [d for *_, d in state["steps"]]

    @pytest.mark.parametrize(
        "name, factory",
        [
            ("sycamore", sycamore_device),
            ("sycamore_flat", lambda: sycamore_device(noise_variation=False)),
            ("aspen8", aspen8_device),
            ("aspen8_flat", lambda: aspen8_device(noise_variation=False)),
        ],
    )
    def test_vendor_devices(self, name, factory):
        golden = GOLDEN[name]
        steps = [(type_key, scale) for type_key, scale, _ in golden["steps"]]
        assert _replay(factory(), steps) == [golden["fresh"]] + [d for *_, d in golden["steps"]]


class TestMemoKey:
    def test_fresh_devices_replaying_one_log_share_digests(self):
        first = _replay(synthetic_device(4, "ring", seed=5), STEPS)
        entries = len(device_module._CALIBRATION_MEMO)
        second = _replay(synthetic_device(4, "ring", seed=5), STEPS)
        assert second == first
        assert len(device_module._CALIBRATION_MEMO) == entries  # all hits
        assert len(set(first)) == len(first)

    def test_one_static_entry_changes_the_digest(self):
        base = synthetic_device(4, "line", seed=5)
        variants = [
            synthetic_device(4, "line", seed=5, readout_error=0.017),
            synthetic_device(4, "line", seed=6),
            synthetic_device(4, "line", seed=5, std_two_qubit_error=0.0025),
            synthetic_device(4, "line", seed=5, name="other"),
        ]
        for variant in [base] + variants:
            variant.register_gate_type("cz")
        digests = {device.calibration_fingerprint() for device in [base] + variants}
        assert len(digests) == 1 + len(variants)

    def test_one_per_qubit_entry_changes_the_digest(self):
        def build(t1):
            return Device(
                name="toy",
                topology=line_topology(3),
                noise_model=NoiseModel(t1=t1),
                two_qubit_error_distribution=GateErrorDistribution(),
                seed=1,
            )

        base = build({0: 10_000.0, 1: 10_000.0, 2: 10_000.0})
        changed = build({0: 10_000.0, 1: 10_000.0, 2: 12_000.0})
        assert base.calibration_fingerprint() != changed.calibration_fingerprint()
        for device in (base, changed):
            assert device.calibration_fingerprint() == _calibration_digest(device)

    def test_one_provided_rate_changes_the_digest(self):
        digests = []
        for rate in (0.03, 0.031):
            device = aspen8_device()
            device.register_gate_type("xy(0.5)", error_rates={(0, 1): rate})
            assert device.calibration_fingerprint() == _calibration_digest(device)
            digests.append(device.calibration_fingerprint())
        assert digests[0] != digests[1]

    @pytest.mark.parametrize("scales", [(2, 2.0), (0.0, -0.0), (1, True)])
    def test_scale_spellings_the_formula_tells_apart(self, scales):
        digests = []
        for scale in scales:
            device = synthetic_device(4, "line", seed=5)
            device.register_gate_type("cz", scale=scale)
            assert device.calibration_fingerprint() == _calibration_digest(device)
            digests.append(device.calibration_fingerprint())
        assert digests[0] != digests[1]

    def test_memo_is_bounded_lru(self, monkeypatch):
        monkeypatch.setattr(device_module._CALIBRATION_MEMO, "max_entries", 3)
        hot = synthetic_device(4, "line", seed=1)
        hot_digest = hot.calibration_fingerprint()
        for seed in range(2, 6):
            synthetic_device(4, "line", seed=seed).calibration_fingerprint()
            assert hot.calibration_fingerprint() == hot_digest  # a hit refreshes it
        assert len(device_module._CALIBRATION_MEMO) == 3
        assert (hot._static_key, ()) in device_module._CALIBRATION_MEMO

    def test_threads_sharing_the_memo(self, monkeypatch):
        """More threads than cores replay logs on fresh devices against a
        small memo: every digest equals the formula's."""
        monkeypatch.setattr(device_module._CALIBRATION_MEMO, "max_entries", 8)
        errors = []

        def worker(seed):
            try:
                for _ in range(5):
                    device = synthetic_device(4, "ring", seed=seed % 3)
                    for type_key, scale in STEPS:
                        device.register_gate_type(type_key, scale=scale)
                        if device.calibration_fingerprint() != _calibration_digest(device):
                            errors.append((seed, type_key))
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(device_module._CALIBRATION_MEMO) <= 8

    def test_clear_experiment_caches_empties_the_memo(self):
        _replay(synthetic_device(4, "line", seed=5), STEPS)
        assert len(device_module._CALIBRATION_MEMO) == len(STEPS) + 1
        clear_experiment_caches()
        assert len(device_module._CALIBRATION_MEMO) == 0


class TestFrozenCalibration:
    def test_every_attribute_write_raises(self):
        model = sycamore_device().noise_model
        for spec in dataclasses.fields(NoiseModel):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, spec.name, getattr(model, spec.name))
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(model, spec.name)

    def test_every_table_write_raises(self):
        device = sycamore_device()
        device.register_gate_type("cz")
        model = device.noise_model
        edge = next(iter(model.two_qubit_error))
        tables = [
            model.single_qubit_error,
            model.t1,
            model.t2,
            model.readout_error,
            model.gate_durations,
            model.two_qubit_error,
            model.two_qubit_error[edge],
        ]
        writes = [
            lambda table: table.__setitem__(0, 0.5),
            lambda table: table.__delitem__(0),
            lambda table: table.update({0: 0.5}),
            lambda table: table.setdefault(99, 0.5),
            lambda table: table.pop(0),
            lambda table: table.popitem(),
            lambda table: table.clear(),
            lambda table: table.__ior__({0: 0.5}),
        ]
        for table in tables:
            assert isinstance(table, FrozenTable)
            for write in writes:
                before = dict(table)
                with pytest.raises(TypeError):
                    write(table)
                assert dict(table) == before

    def test_two_qubit_table_changes_only_through_registration(self):
        device = sycamore_device()
        with pytest.raises(TypeError):
            device.noise_model.set_two_qubit_error_rate("cz", (0, 1), 0.05)
        held = device.noise_model.two_qubit_error
        device.register_gate_type("cz")
        assert "cz" not in held.get((0, 1), {})  # copy-on-write: held table unchanged
        assert "cz" in device.noise_model.two_qubit_error[(0, 1)]

    def test_unbound_model_stays_writable(self):
        model = NoiseModel.uniform(3, two_qubit_error=0.01)
        model.set_two_qubit_error_rate("cz", (1, 0), 0.05)
        model.readout_error[0] = 0.1
        model.default_t1 = 1.0
        assert model.two_qubit_error_rate("cz", (0, 1)) == 0.05

    def test_scaled_copy_of_a_bound_model(self):
        device = sycamore_device()
        device.register_gate_type("cz")
        scaled = device.noise_model.scaled_two_qubit(2.0, device.registered_type_scales())
        rate = device.noise_model.two_qubit_error_rate("cz", (0, 1))
        assert scaled.two_qubit_error_rate("cz", (0, 1)) == pytest.approx(min(2 * rate, 1.0))
        assert scaled.t1 is device.noise_model.t1  # frozen tables are shared
        scaled.default_t1 = 1.0  # the copy is unbound

    def test_binding_twice_is_rejected(self):
        model = NoiseModel()
        Device("a", line_topology(2), model, GateErrorDistribution(), seed=1)
        with pytest.raises(ValueError):
            Device("b", line_topology(2), model, GateErrorDistribution(), seed=1)

    @pytest.mark.parametrize(
        "attribute",
        ["name", "topology", "noise_model", "two_qubit_error_distribution", "noise_variation", "seed"],
    )
    def test_device_identity_is_fixed(self, attribute):
        device = synthetic_device(3, "line", seed=1)
        with pytest.raises(AttributeError):
            setattr(device, attribute, getattr(device, attribute))

    def test_factories_share_frozen_tables(self):
        first, second = sycamore_device(), sycamore_device()
        for table in ("single_qubit_error", "t1", "t2", "readout_error"):
            assert getattr(first.noise_model, table) is getattr(second.noise_model, table)
        flat = sycamore_device(readout_error=0.0)
        assert flat.noise_model.readout_error is not first.noise_model.readout_error
        assert set(flat.noise_model.readout_error.values()) == {0.0}

    def test_frozen_table_digest_matches_a_plain_dict(self):
        nested = {(0, 1): {"cz": 0.01, "syc": 0.02}, (1, 2): {"cz": 0.03}}
        frozen = FrozenTable({edge: FrozenTable(rates) for edge, rates in nested.items()})
        assert hash_mapping(frozen) == hash_mapping(nested)
        assert hash_mapping(frozen) == hash_mapping(frozen)  # memoised answer


class TestCopies:
    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda device: pickle.loads(pickle.dumps(device))]
    )
    def test_round_trip_keeps_digest_and_registers_independently(self, clone):
        original = synthetic_device(5, "grid", seed=9)
        original.register_gate_type("cz")
        before = original.calibration_fingerprint()
        copied = clone(original)
        assert copied.calibration_fingerprint() == before
        assert _calibration_digest(copied) == before
        assert isinstance(copied.noise_model.readout_error, FrozenTable)
        with pytest.raises(TypeError):
            copied.noise_model.readout_error[0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            copied.noise_model.default_t1 = 1.0

        copied.register_gate_type("syc", scale=2)
        assert original.calibration_fingerprint() == before
        assert _calibration_digest(original) == before
        assert "syc" not in original.registered_gate_types
        assert copied.calibration_fingerprint() == _calibration_digest(copied) != before

        # Same log on the original: same draws, same digest as the copy.
        original.register_gate_type("syc", scale=2)
        assert original.calibration_fingerprint() == copied.calibration_fingerprint()
