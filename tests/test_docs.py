"""The README's YAML examples read as the program reads them."""
import os
import re

import yaml

from coopsim.experiments import validate_config
from coopsim.topology import load_topology

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _example(heading):
    """The first YAML block of the README section under heading."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index(f"\n### {heading}\n"):]
    return re.search(r"```yaml\n(.*?)```", section, re.DOTALL).group(1)


def test_topology_file_example_loads(tmp_path):
    path = tmp_path / "topo.yaml"
    path.write_text(_example("Topology files"))
    t = load_topology(path)
    assert (t.label, t.n_relays, t.snr_sd) == ("home-net", 3, 0.2)


def test_adaptive_compare_example_validates(tmp_path):
    # topoA.yaml and topoB.yaml: the topology file example under labels A and B
    topology = yaml.safe_load(_example("Topology files"))
    for label in ("A", "B"):
        (tmp_path / f"topo{label}.yaml").write_text(
            yaml.safe_dump({**topology, "label": label}))
    cfg = tmp_path / "config.yaml"
    cfg.write_text(_example("Experiment configs"))
    assert validate_config(str(cfg)) == (
        "ok: adaptive_compare over 5 segments (860 frames, 2 topologies)")
