"""The package keeps the names that perfbench's tracer patches.

The tracer wraps every public function of the layer modules as a span and
replaces the name ``cKDTree`` in ``core``, ``contact`` and ``generators``
with a counter.  The grid index bound under that name lives outside those
layers, so an index build is counted in the module that makes it and is
never a span.
"""

from perfbench.tracer import Tracer
from sepack.cli import main


def test_tree_builds_are_counted_not_traced(tmp_path):
    pack, rep = tmp_path / "k6.json", tmp_path / "k6-report.json"
    tracer = Tracer()
    with tracer.installed():
        assert main(["gen", "--name", "K6", "--window", "8", "--out", str(pack)]) == 0
        assert main(["verify", str(pack), "--report", str(rep)]) == 0
    names = {span.name for span in tracer.spans}
    assert {"generators.generate_named", "contact.build_contact_graph"} <= names
    assert not [name for name in names if name.endswith("cKDTree")]
    # an orbit window builds one index (its one pair-type search, shared by
    # the probe and the padded window), a verify one
    assert [module for _, module in tracer.kdtree_builds] == ["generators", "core"]


def test_measure_runs_under_the_certifier_span(tmp_path):
    pack = tmp_path / "tri.json"
    assert main(["gen", "--name", "TRI", "--window", "6", "--out", str(pack)]) == 0
    tracer = Tracer()
    with tracer.installed():
        assert main(["measure", str(pack)]) == 0
    names = [span.name for span in tracer.spans]
    assert names.count("separability.certify_total_separability") == 1
    assert names.count("contact.build_contact_graph") == 1
