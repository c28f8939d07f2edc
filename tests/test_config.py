"""The shipped configs load, so that a retired or renamed config key fails
here and not on a user's first run."""

import glob
import os

import pytest

from chainrec.config import make_config
from chainrec.graph import make_schema

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))


def test_configs_are_shipped():
    assert [os.path.basename(p) for p in CONFIGS] == ["retail.cfg", "tmall.cfg",
                                                      "yelp.cfg"]


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_shipped_config_loads_and_builds_its_schema(path):
    cfg = make_config(path)
    schema = make_schema(cfg.relations, cfg.target, cfg.schema_order)
    assert schema.target == cfg.target
    assert sorted(schema.canonical_order) == sorted(cfg.relations)
