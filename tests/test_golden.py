"""Golden bytes: sha256 digests of the CSVs and manifests of small fixed CLI runs.

The reproducibility contract makes every output a pure function of the
config, so any refactor of the stepping or reduction code must leave these
digests unchanged.  Manifests are hashed without their ``out=`` line, which
names the temporary directory.

The Philox and ``standard_normal`` bytes are pinned only per numpy version,
so the digests are checked only on the numpy version they were captured on.
"""

import hashlib

import numpy as np
import pytest

from mtemsim.cli import main

CAPTURED_ON_NUMPY = "2.4.6"

_EX41 = ["--model", "example41", "--delta", "5e-4"]

CASES = {
    # 520 recorded paths: the states cross the 512-path segment boundary
    "simulate_two_segments": (
        ["simulate", *_EX41, "--steps", "30", "--paths", "520", "--seed", "7",
         "--x0", "2.0", "--refinement", "2"],
        {
            "paths.csv": "b42e00d469364734e2fdd0a7e6248e82906585ec3bd18d7001b2a3a022799618",
            "manifest.txt": "66a10a0113c392aaff59e40919dd1f6c256bad897bdee04e90999ca1e87262c7",
        },
    ),
    # path 1 diverges at step 3
    "simulate_em_diverging": (
        ["simulate", "--model", "example41", "--scheme", "em", "--delta", "5e-3",
         "--steps", "100", "--paths", "6", "--seed", "11", "--x0", "3.0", "--refinement", "1"],
        {
            "paths.csv": "18e15bd62c3a6814c25f5f23d259d555754094e69349a0277f300faec5bd3616",
            "manifest.txt": "32c988c7d0a7cbbade13f2332a4868af5020fc5220bf7509afec86274ed98e46",
        },
    ),
    "exponent_linear_workers3": (
        ["exponent", "--model", "linear", "--mu", "-1.0", "--sigma", "0.5", "--delta", "1e-3",
         "--steps", "1000", "--paths", "1100", "--seed", "3", "--refinement", "4",
         "--x0", "1.0", "--workers", "3"],
        {
            "moment.csv": "45e7268f7b0de12871b2dc6ee63d094fa30312214dd38032f8728d76fd7e3b6a",
            "fit.csv": "a8bf371b7e2fa710460fd1595496dd6593c4e153614f121868648f507e9f4e0e",
            "pathwise.csv": "2f69353411a61f5a3900d38c8b70ef8f9907bfd41338f05a6c538a7b097dca3f",
            "manifest.txt": "f296a2505a9be8d62ee1a5566f00fba4c65e55cce239c6f9a5bd1fb603afdedb",
        },
    ),
    "exponent_example41_600": (
        ["exponent", *_EX41, "--steps", "2000", "--paths", "600", "--seed", "21",
         "--refinement", "1", "--x0", "2.0"],
        {
            "moment.csv": "2cb2fef4c590d7f7fe6835f81fd8004640d2878fce1cc4ef4647a8e9b27a87f0",
            "fit.csv": "9c80d473efca9f6d23375645f49ea72dd81ec46f99bce964d6af93811a8db5e8",
            "pathwise.csv": "6a7732fa140ae0ff265d4b4d051d9060686cceaf3b404e82e3f8f1b68907f063",
            "manifest.txt": "59fff40036379bbe5e8ce25d0d50ada854692fbc3ccff672ce883908da301844",
        },
    ),
    # 226 of 600 em paths diverge, path 3 among the recorded ones
    "compare_600": (
        ["compare", *_EX41, "--steps", "400", "--paths", "600", "--seed", "42",
         "--refinement", "1", "--x0", "8.0"],
        {
            "compare.csv": "aada142f350f1ed1315cb36433d85bd6932d656f4330bed52f30d9025f419bc5",
            "tallies.csv": "1b8356d86c7d416ef40e11c393e468c20258c22dc8631211c5956197db8ca2e9",
            "manifest.txt": "7a236d7a61d0334a8feae1115f4fa5c91fec082d5992e7d56074d8bc38a0bdc0",
        },
    ),
    # fewer paths than compare records; two of three em paths diverge
    "compare_3": (
        ["compare", *_EX41, "--steps", "400", "--paths", "3", "--seed", "1",
         "--refinement", "2", "--x0", "8.0"],
        {
            "compare.csv": "14e2328dce28a3f7b788a8b9696782a5e41e092f2ce73e45bae5ad2c547ee2fc",
            "tallies.csv": "1694b7744bdfd765cc041a90a0e5c4b165d030e60a0893047ab23dce867e30fb",
            "manifest.txt": "ea171b8156ae1d805506996553d531d5da12dbc2894a4a6a9f0e67f21196b329",
        },
    ),
    "verify": (
        ["verify", *_EX41, "--seed", "5"],
        {
            "step_condition.csv": "2ed03674e30a92f1337b74ae1e6a4876df4730ff3f600630638ca080e8e2c7c2",
            "lemmas.csv": "56bc2dc12abc9b55c770d1d7d910e56b411c3e71ad04eb8e4f9225e23954da59",
            "manifest.txt": "4bbd4202d59630e5dbb9ffc084be180ceaa4cf74488ae03100305cdb18308c0c",
        },
    ),
}


def _digest(path) -> str:
    data = path.read_bytes()
    if path.name.endswith("_manifest.txt"):
        lines = data.split(b"\n")
        data = b"\n".join(line for line in lines if not line.startswith(b"out="))
    return hashlib.sha256(data).hexdigest()


@pytest.mark.skipif(
    np.__version__ != CAPTURED_ON_NUMPY,
    reason=f"golden digests were captured on numpy {CAPTURED_ON_NUMPY}; "
    f"the Philox and standard_normal bytes may differ on numpy {np.__version__}",
)
@pytest.mark.parametrize("name", list(CASES))
def test_outputs_match_golden_digests(tmp_path, name):
    argv, expected = CASES[name]
    prefix = tmp_path / name
    assert main(argv + ["--out", str(prefix)]) == 0
    written = sorted(p.name[len(name) + 1:] for p in tmp_path.iterdir())
    assert written == sorted(expected)
    digests = {suffix: _digest(tmp_path / f"{name}_{suffix}") for suffix in expected}
    assert digests == expected
