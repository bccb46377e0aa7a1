import pytest

from rootdrill import parse_snapshot

# Two-attribute example used throughout the docs: one province dropped to half
# of its forecast while everything else tracks closely.
PROVINCE_CSV = """\
Province,ISP,real,predict
Beijing,China Mobile,5,10
Beijing,China Unicom,10,20
Shanghai,China Unicom,30,31
Guangdong,China Mobile,10,9.8
Zhejiang,China Unicom,2,2
Guangdong,China Unicom,200,210
Shanxi,China Unicom,20,22
Jiangsu,China Unicom,200,203
Tianjin,China Mobile,41,43
"""


@pytest.fixture
def province_csv() -> str:
    return PROVINCE_CSV


@pytest.fixture
def province_snapshot():
    return parse_snapshot(PROVINCE_CSV)


@pytest.fixture(params=["attributes-first", "values-first"])
def province_csv_orders(request) -> str:
    """The province table with its attribute columns first, or its value columns."""
    if request.param == "attributes-first":
        return PROVINCE_CSV
    rows = (line.split(",") for line in PROVINCE_CSV.splitlines())
    return "".join(",".join(r[2:] + r[:2]) + "\n" for r in rows)
