"""Cold start of revivalkit: ``import revivalkit`` plus the first action-table build.

Run as a script in a fresh interpreter it prints the seconds taken:

    python3 perfbench/setup_probe.py src

``measure`` is also called by the benchmark process itself before it has
imported numpy, scipy or revivalkit, which makes it one more fresh sample.
"""

import sys
from time import perf_counter


def measure(src: str) -> float:
    start = perf_counter()
    if src not in sys.path:
        sys.path.insert(0, src)
    import revivalkit  # noqa: F401
    from revivalkit.model import build_action_table
    from revivalkit.potential import canonical_double_well

    build_action_table(canonical_double_well())
    return perf_counter() - start


if __name__ == "__main__":
    print(repr(measure(sys.argv[1])))
