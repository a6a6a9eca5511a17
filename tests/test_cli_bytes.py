"""CLI outputs pinned byte for byte, for runs the benchmark's digests do not cover.

Each entry is one command line with the SHA-256 of its CSV and of its JSON
(runtime_seconds dropped, keys sorted).  Between them the commands exercise the
Haar volume rules, the growth fit in both threshold scales, the det p^(2k)
level ladder, the gauge scale metadata, the weight-polytope boundedness
check, and the coset and torus passes on SL(2,Z[1/p]), SL(3,Z) and the r = 1
kernel.  Three more pin the columnar "sq" walk: a seed-2 benchmark torus
line (non-integer top threshold, random base point), a hyperbolic coset run
at q = 3 and an sl2z1p coset run whose p B exclusion bites at p = 3.  Others
pin how the CLI resolves a spec: a hyperbolic gauge on the T scale, t-scale
runs of T-native gauges, torus flags parsed into tuples, an sl3z spectral run
and balanced runs at four tensor powers (the default q = 3 run is in the
benchmark's digests too).  A refactor that means to keep every
output byte keeps these digests.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

from latcount.cli import build_parser, render_csv, render_json, resolve_spec, run_experiment

PINNED = [
    ("count --gauge hyperbolic --tmax 8",
     "bc857cef0e8b23ce1c2fe94e0f2bb46c695ecdad9705819ab3139cc5c0449762",
     "be017c2908148f3d00325e2a2760e49bc6fbb9d7099605149e2c96aebe2ff07a"),
    ("volume --gauge hyperbolic --tmax 10",
     "e952a4849e79f72675f6cd12e8b8a6df03a681fd313b5f8b6a754e75730fe6a0",
     "68c03235a0fdc1f90408ca8eac231f402a4280c8a2eb36ef688bd15c6df2e49b"),
    ("volume --group sl3z --tmax 60",
     "e24e7ab5f57f9189be1c88bf9e0e8f642c3bb1f974ca09c4d7ab419620df496f",
     "09c963b75736c766f90fb8893c62e97995824dbe092828b98136aed1556d3dd4"),
    ("spectral --gauge hyperbolic --tmax 10",
     "742832920252f2a5d561eb43f6e9e0e5b6d5f38840ddcf059d5e9e46d4423682",
     "833a8e7499ed140c5ef63fec707708129b0d83702f724753ffae22d247fb3126"),
    ("balanced --q 2",
     "b42e500fc51483dcb99060dbece9426bd2ab9d485523c890bc57c55febd44292",
     "0730d167b735bf93f4133c85dc72c699e3b30dcfbea83f2e7139aa2b3d168887"),
    ("coset --gauge hyperbolic --tmax 7",
     "8af5f0f1f53cfaaa75f6e4fa4b9a165670025f40235f814d98d8d1b88dd8b32b",
     "4222d140c10c4dc8d41eba42bd43e9ea40a4d3c194669cf3420b882905c94fc9"),
    ("torus --gauge hyperbolic --tmax 7",
     "dc1b3586962ca6530e83bfc0325142d169a4eccb4cd8218dddadfe69e6f6a5b4",
     "5e28af459bea0dca868ce49667fe2c27b5cc4aa1a40ad07556e95b4b0c168264"),
    ("sarith --prime 3 --tmax 30",
     "fac2a80f10b29d3f153a885c51a4639e65b1a856410a2619202c1a24582a9895",
     "dfdd565f19c2c2af0fb6047757e1e503dd7ee7d7b1b83c2236ef2e3e6a6f14b7"),
    ("admissibility --gauge hyperbolic --tmax 15 --seed 7",
     "3326c64cca52ba69c5153954ee4304301dfdf070712db85f0f3bb146043b6e36",
     "317b173e61e0fbcfcde54387748eebcb4623f17e75f402a97c6abd4a8bc1ebe2"),
    ("count --group sl3z --gauge rnorm:1 --steps 6 --tmax 6",
     "bcbf1ebfceda4c2e46c06e49b4251c6fe55afd1736d93637f04ce42dd1692d43",
     "a96f9854b4cce392484ff83f8589ab34a13fe6ce73dbdf3e7693cf88ba9a2c21"),
    ("count --group sl3z --gauge rnorm:inf --steps 6 --tmax 2.5",
     "3f9d6aa05af9ef8ae69f004e290ddc683ea4eae238018b826ad76ebb096c0305",
     "322ec727fc71586d1c6ad7ef3c64fdb006051fd6f3c51bf162b6307952786139"),
    ("coset --group sl2z1p --gauge height:p=2 --q 3 --tmax 30",
     "d1c180b8d49ed249f459aca6546c8383a5dd54e5e12a625393e5761e17e3f509",
     "1176e31878c9ef6417fa6b3b461234c4316d3d2fc2377541d89cb78df94606ed"),
    ("coset --group sl3z --q 2 --tmax 4 --steps 6",
     "bbf94d0b9d0e51d7ef42b4fcd2b0ca46ee1443d51beccd858f1c24e884a40e3a",
     "b73345f5cb757ca1b163a22ee57bc12be437f9cd5ffc9dc22836d193781971e6"),
    ("torus --gauge rnorm:1 --tmax 60",
     "e87589332beed8b59ac6b493b46de9381aecf94805bb1c5a8fe893da86ff7802",
     "cba08a130d47d0c41c4bc68ad313d4c8e4808fd644b594369fffb5dea85ddedb"),
    ("count --gauge hyperbolic --scale T --tmax 40",
     "bf1750f4e4a87bbf6fed9dbf4fdf237233ea938ec4ae9dc04b8427fb248bc4c4",
     "baabeb8cf47d7a929bfd93ebe891ea7576b6ecfbedce38c1aeb24fe1ced8e990"),
    ("count --scale t --tmax 8",
     "384464c1f0b49c723d40ba6553c135ffa28638f230a06a218e9f93c49fca9e0e",
     "97827efc658535588db306597cb1b0ea82f46f0ae7395158e22e8b490e8456c1"),
    ("sarith --scale t --tmax 3.5",
     "1953ec15e9a0d97d7e1f9e80adf5a0ce725519c603d09ef2aee76ae2d5129e8b",
     "8993136d009554144c684b945efbb5e23abc66954d33b7e321bfa2e2f774d249"),
    ("torus --observable 2,1 --x0 0.1,0.7 --tmax 60",
     "c1a304043be2a6029ac81731a38149898f712afd340199bda9ab97379bcf1bd8",
     "9df27e23457dab23d8a5101856cf43477a0b9e6ee4b9388c13d638ad449b3dc5"),
    ("spectral --group sl3z --p 4 --r 2",
     "742832920252f2a5d561eb43f6e9e0e5b6d5f38840ddcf059d5e9e46d4423682",
     "7822892a4ee3deb62a712da78a5773f9040f2ac2d4d3105c74118776fa8150ad"),
    ("balanced --q 4",
     "88484331094752624f0ca1951d66d65e6bfaff485082aeda63c576bbf3ba2a42",
     "0fd46b08c63a62ba486ee34d6bfd5bbbd8b21f3f3fb3fbf31cb15dc3d54b782d"),
    ("balanced",
     "4d59fe2a0efa2aa742457022bfe04c1a13edef77b0bd12fc0d8403459146d0d0",
     "9fcf241d84ae056829efdbc72acc32f0138a877b54804a912db5e5e717494d3c"),
    ("balanced --q 5 --tmax 30 --steps 9",
     "14b703f9ab69d4c054560adc489ac3cae2f1ce95781f205f9662df7f5f99b44c",
     "9df632fb7142cbf4c90a2bdd73a6bd32e778d6e6612e724e98513549b4a0ed7e"),
    ("torus --tmax 151.43405140783386 --x0 0.9478274870593494,0.05655136772680869",
     "53319f7132561cec6d3e2ee349beb3935723d9ac3bb422f95b6ee1feffa618d1",
     "7d3915f1a9f66654de8302204a839727f1a57fd7740a531bcd236ee17ac7e5cb"),
    ("coset --gauge hyperbolic --q 3 --tmax 9",
     "f525677e1ce766976ccce671c9b2f6a610ced1ff8286d6fa1cf1853d96c1d9ad",
     "37f891a27da68c4e3bd2ce5c8e4c164fa7f298285c77ea765073ff16bf2e2853"),
    ("coset --group sl2z1p --gauge height:p=3 --q 2 --tmax 30",
     "e051a6dcd513589d8a9e9e95ee09e4046dc28bfd1cb30018c69241b76c5ec025",
     "95a29fb1ab6f4d3ce2ed1d21bbf2c205f07844f6448e49286f14e34089cc2665"),
]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("command,csv_digest,json_digest", PINNED,
                         ids=[command for command, _, _ in PINNED])
def test_cli_output_bytes(command, csv_digest, json_digest):
    report = run_experiment(resolve_spec(build_parser().parse_args(command.split())))
    payload = json.loads(render_json(report))
    payload.pop("runtime_seconds")
    assert _sha256(render_csv(report)) == csv_digest
    assert _sha256(json.dumps(payload, sort_keys=True)) == json_digest


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_benchmark_coset_and_torus_lines_keep_their_digests(seed, monkeypatch):
    # seeds 1 and 2 move --tmax off an integer and draw the torus --x0; the
    # digests are computed as perfbench/worker.py computes them
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    workloads = importlib.import_module("workloads")
    reference = json.loads((PERFBENCH / "reference" / "digests.json").read_text())
    lines = workloads.command_lines(workloads.WORKLOADS["sl2z-frobenius"], seed)
    for label in ("coset", "torus"):
        report = run_experiment(resolve_spec(build_parser().parse_args(lines[label])))
        got = worker.digests(render_csv(report), render_json(report))
        assert got == reference["sl2z-frobenius"][str(seed)][label], (label, lines[label])
