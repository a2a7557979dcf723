"""The benchmark tracer (perfbench/tracing.py) wraps package functions by
name; a rename or deletion of one of them must fail here, not only when
the benchmark runs with ``--trace 1``."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import toda_atlas.analysis
import toda_atlas.atlas
import toda_atlas.cli
import toda_atlas.flows
import toda_atlas.weyl_profiles

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_bindings():
    """Every module attribute of the package, and the patched class and table entries."""
    bindings = {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "toda_atlas" or name.startswith("toda_atlas.")
        for attr, value in vars(module).items()
    }
    bindings["FlagPoint.__post_init__"] = toda_atlas.atlas.FlagPoint.__dict__["__post_init__"]
    bindings["Permutation.all"] = toda_atlas.weyl_profiles.Permutation.__dict__["all"]
    bindings.update({("_SUITES", key): fn for key, fn in toda_atlas.cli._SUITES.items()})
    return bindings


def test_install_wraps_and_uninstall_restores():
    before = package_bindings()
    integrate = toda_atlas.flows.integrate
    propagate = toda_atlas.flows.propagate
    post_init = toda_atlas.atlas.FlagPoint.__post_init__
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        assert toda_atlas.flows.integrate is not integrate
        # the flow command's one-start runs are caught at the name the CLI
        # looks up; the suites run integrate_many, which is not wrapped
        assert toda_atlas.cli.integrate is toda_atlas.flows.integrate
        assert not hasattr(toda_atlas.analysis, "integrate")
        # propagate has no caller in the package; it is wrapped where it is
        # defined
        assert toda_atlas.flows.propagate is not propagate
        assert toda_atlas.atlas.FlagPoint.__post_init__ is not post_init
        assert toda_atlas.cli._SUITES["toda"] is toda_atlas.analysis.toda_suite
        toda_atlas.flows.integrate(toda_atlas.flows.toda_field, np.diag([1.0, -1.0]))
        assert tracer.spans[("flows.integrate", 0)][0] == 1
        assert tracer.spans[("flows.field", 0)][0] == 1
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
