"""The package keeps the names that perfbench's tracer patches.

The tracer wraps every public function of the layer modules as a span and
replaces the name ``cKDTree`` in ``core``, ``contact`` and ``generators``
with a counter.  The KD-tree constructor lives outside those layers, so a
tree build is counted in the module that makes it and is never a span.
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
    # an orbit window builds three trees, a verify one
    assert [module for _, module in tracer.kdtree_builds] == ["generators"] * 3 + ["core"]
