from pathlib import Path

import pytest

from kgtopos import build_free_category, build_site, load_presheaf, parse_kg

DATA = Path(__file__).parent / "data"

# Two sources (A, D) each pointing at two shared sinks (B, C), with four
# distinct predicates.  Small enough to verify everything by hand, rich
# enough to exercise shared-head, shared-tail and covering structure.
FAN_TEXT = (DATA / "fan.txt").read_text()


@pytest.fixture(scope="session")
def fan_kg():
    return parse_kg(FAN_TEXT)


@pytest.fixture(scope="session")
def fan_cat(fan_kg):
    return build_free_category(fan_kg)


@pytest.fixture(scope="session")
def fan_path_site(fan_kg):
    return build_site(fan_kg, "path")


@pytest.fixture(scope="session")
def fan_atomic_site(fan_kg):
    return build_site(fan_kg, "atomic")


@pytest.fixture(scope="session")
def product_presheaf_data():
    import json

    return json.loads((DATA / "product_presheaf.json").read_text())


@pytest.fixture(scope="session")
def undersized_presheaf_data():
    import json

    return json.loads((DATA / "undersized_presheaf.json").read_text())


@pytest.fixture(scope="session")
def fan_product_presheaf(fan_path_site, product_presheaf_data):
    return load_presheaf(fan_path_site.category.kg, product_presheaf_data)
