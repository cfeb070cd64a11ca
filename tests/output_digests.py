"""Print the sha256 of 48 command outputs, to check that a change keeps
every output byte.

Run from the root of each checkout and compare:

    python tests/output_digests.py > digests.txt
    diff parent/digests.txt change/digests.txt

It runs the ``ofpca`` commands of this checkout's ``src`` in a temporary
directory and prints one ``sha256  relative-path`` line per file written:
``simulate --design dist|net --n 60 --seed 3``; ``fit`` (dist) and
``fit --components 3`` (net) of those samples; ``fit --explained-fraction
0.5|0.9|0.99|1.0`` of each sample; ``mise --design net --n 100 --runs 10
--seed 5``; ``mise --design dist --n 25,50 --runs 3``; and ``fit`` of
``tests/data/scalar_fixture.json``.

Another Python, numpy or BLAS build, or another CPU, may give other
bytes, so the digests are pinned together with the environment they were
recorded in:

    python tests/output_digests.py --pin

writes ``tests/data/output_digests.txt``: the ``fingerprint()`` lines,
then the digest lines.  ``test_output_digests.py`` compares with it
where the fingerprint matches and skips elsewhere.
"""

import contextlib
import hashlib
import os
import pathlib
import platform
import sys
import tempfile

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
from ofpca.cli import main  # noqa: E402

FRACTIONS = ("0.5", "0.9", "0.99", "1.0")
DATA = pathlib.Path(__file__).resolve().parent / "data"
PINNED = DATA / "output_digests.txt"


def fingerprint() -> list[str]:
    """``# key: value`` lines naming what the output bytes may depend on:
    the Python and numpy versions, the BLAS build, the CPU model and its
    SIMD extensions (which a runtime-dispatching BLAS chooses kernels by)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = {}  # the first processor's fields, on Linux
    with contextlib.suppress(OSError):
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            cpu.setdefault(key.strip(), value.strip())
    simd = [flag for flag in cpu.get("flags", "").split() if flag.startswith(("avx", "fma"))]
    return [f"# python: {platform.python_version()}", f"# numpy: {np.__version__}",
            f"# blas: {blas['name']} {blas['version']}",
            f"# cpu: {cpu.get('model name', platform.processor())}",
            f"# simd: {' '.join(simd)}"]


def commands():
    """The argument lists, each with relative output paths."""
    for design in ("dist", "net"):
        yield ["simulate", "--design", design, "--n", "60", "--seed", "3",
               "--out", f"{design}.json"]
    yield ["fit", "dist.json", "--out", "fit-dist"]
    yield ["fit", "net.json", "--components", "3", "--out", "fit-net"]
    for design in ("dist", "net"):
        for f in FRACTIONS:
            yield ["fit", f"{design}.json", "--explained-fraction", f,
                   "--out", f"fit-{design}-ef{f}"]
    yield ["mise", "--design", "net", "--n", "100", "--runs", "10", "--seed", "5",
           "--out", "mise-net.csv"]
    yield ["mise", "--design", "dist", "--n", "25,50", "--runs", "3", "--out", "mise-dist.csv"]
    yield ["fit", str(DATA / "scalar_fixture.json"), "--out", "fit-scalar"]


def digests(root: pathlib.Path) -> list[str]:
    """Run every command inside ``root`` and return the digest lines."""
    here = os.getcwd()
    os.chdir(root)
    try:
        for args in commands():
            with contextlib.redirect_stdout(sys.stderr):
                code = main(args)
            if code != 0:
                raise SystemExit(f"{' '.join(args)} exited {code}")
    finally:
        os.chdir(here)
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
            for p in sorted(root.rglob("*")) if p.is_file()]


def read_pinned() -> tuple[list[str], list[str]]:
    """The pinned fingerprint lines and digest lines."""
    lines = PINNED.read_text().splitlines()
    return ([line for line in lines if line.startswith("#")],
            [line for line in lines if not line.startswith("#")])


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        lines = digests(pathlib.Path(tmp))
    if sys.argv[1:] == ["--pin"]:
        PINNED.write_text("\n".join(fingerprint() + lines) + "\n")
    else:
        print("\n".join(lines))
