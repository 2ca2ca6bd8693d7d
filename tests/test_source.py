import ast
import pathlib

import hetcycle

#: The oldest Python that pyproject.toml's requires-python admits.
OLDEST = (3, 10)


def test_sources_parse_on_the_oldest_supported_python():
    # the suite runs on a newer interpreter; this catches syntax that the
    # oldest supported one would reject (except*, PEP 695 generics, ...)
    sources = sorted(pathlib.Path(hetcycle.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=OLDEST)
