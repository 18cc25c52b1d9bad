"""Command-line surface: formats, exit codes, reproducibility."""

import csv
import io
import json
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli there
    import tomli as tomllib

from bellrsp import Outcome, canonicalize_target, run_trial, trial_rng
from bellrsp.cli import format_state, main
from bellrsp.protocol import build_target_state

GENERAL = ["--alpha", "0.6", "--beta-re", "0", "--beta-im", "0.8", "--m", "2"]
REAL = ["--alpha", "0.6", "--beta-re", "0.8", "--beta-im", "0", "--m", "2"]
EQUATORIAL = ["--alpha", "0.70710678", "--beta-re", "0.5", "--beta-im", "0.5", "--m", "4"]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def invoke(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_console_script(*args):
    """Run the ``bellrsp`` console script that ``pyproject.toml`` declares.

    The ``module:attr`` target from ``[project.scripts]`` is launched through
    ``sys.executable`` the way the installed wrapper calls it, so an
    uninstalled checkout is tested too. When an installed ``bellrsp`` is on
    PATH, it must give the same exit code and stdout.
    """
    with PYPROJECT.open("rb") as handle:
        target = tomllib.load(handle)["project"]["scripts"]["bellrsp"]
    module, attr = target.split(":")
    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    result = subprocess.run(
        [sys.executable, "-c", launcher, *args], capture_output=True, text=True
    )
    installed = shutil.which("bellrsp")
    if installed is not None:
        wrapper = subprocess.run([installed, *args], capture_output=True, text=True)
        assert (wrapper.returncode, wrapper.stdout) == (result.returncode, result.stdout)
    return result


# `run --force-outcome` text output, captured once and compared byte for byte.
GOLDEN_TARGETS = {
    "general": ["--alpha", "0.48", "--beta-re", "0.6", "--beta-im", "0.64"],
    "real": ["--alpha", "0.28", "--beta-re", "-0.96", "--beta-im", "0"],
    "equatorial": ["--alpha", "0.70710678", "--beta-re", "0.5", "--beta-im", "0.5"],
}
GOLDEN_RUN_TEXT = {
    ("general", 2, "psi"): (
        "target     0.48|00> + (0.6+0.64i)|11> (general, m=2)\n"
        "outcome    psi\n"
        "message    ABORT\n"
        "bits_sent  0\n"
        "fidelity   0\n"
        "success    false\n"
        "bob_state  (aborted)\n"
    ),
    ("general", 2, "psiperp"): (
        "target     0.48|00> + (0.6+0.64i)|11> (general, m=2)\n"
        "outcome    psi_perp\n"
        "message    0\n"
        "bits_sent  1\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  0.48|00> + (0.6+0.64i)|11>\n"
    ),
    ("general", 5, "psi"): (
        "target     0.48|00000> + (0.6+0.64i)|11111> (general, m=5)\n"
        "outcome    psi\n"
        "message    ABORT\n"
        "bits_sent  0\n"
        "fidelity   0\n"
        "success    false\n"
        "bob_state  (aborted)\n"
    ),
    ("general", 5, "psiperp"): (
        "target     0.48|00000> + (0.6+0.64i)|11111> (general, m=5)\n"
        "outcome    psi_perp\n"
        "message    0\n"
        "bits_sent  1\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  0.48|00000> + (0.6+0.64i)|11111>\n"
    ),
    ("general", 12, "psi"): (
        "target     0.48|000000000000> + (0.6+0.64i)|111111111111> (general, m=12)\n"
        "outcome    psi\n"
        "message    ABORT\n"
        "bits_sent  0\n"
        "fidelity   0\n"
        "success    false\n"
        "bob_state  (aborted)\n"
    ),
    ("general", 12, "psiperp"): (
        "target     0.48|000000000000> + (0.6+0.64i)|111111111111> (general, m=12)\n"
        "outcome    psi_perp\n"
        "message    0\n"
        "bits_sent  1\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  0.48|000000000000> + (0.6+0.64i)|111111111111>\n"
    ),
    ("real", 2, "psi"): (
        "target     0.28|00> + -0.96|11> (real, m=2)\n"
        "outcome    psi\n"
        "message    10\n"
        "bits_sent  2\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  0.28|00> + -0.96|11>\n"
    ),
    ("real", 2, "psiperp"): (
        "target     0.28|00> + -0.96|11> (real, m=2)\n"
        "outcome    psi_perp\n"
        "message    0\n"
        "bits_sent  1\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  0.28|00> + -0.96|11>\n"
    ),
    ("real", 5, "psi"): (
        "target     0.28|00000> + -0.96|11111> (real, m=5)\n"
        "outcome    psi\n"
        "message    10\n"
        "bits_sent  2\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  0.28|00000> + -0.96|11111>\n"
    ),
    ("real", 5, "psiperp"): (
        "target     0.28|00000> + -0.96|11111> (real, m=5)\n"
        "outcome    psi_perp\n"
        "message    0\n"
        "bits_sent  1\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  0.28|00000> + -0.96|11111>\n"
    ),
    ("real", 12, "psi"): (
        "target     0.28|000000000000> + -0.96|111111111111> (real, m=12)\n"
        "outcome    psi\n"
        "message    10\n"
        "bits_sent  2\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  0.28|000000000000> + -0.96|111111111111>\n"
    ),
    ("real", 12, "psiperp"): (
        "target     0.28|000000000000> + -0.96|111111111111> (real, m=12)\n"
        "outcome    psi_perp\n"
        "message    0\n"
        "bits_sent  1\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  0.28|000000000000> + -0.96|111111111111>\n"
    ),
    ("equatorial", 2, "psi"): (
        "target     0.707106780593|00> + (0.50000000042+0.50000000042i)|11> (equatorial, m=2)\n"
        "outcome    psi\n"
        "message    11\n"
        "bits_sent  2\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  (0.50000000042-0.50000000042i)|00> + 0.707106780593|11>\n"
    ),
    ("equatorial", 2, "psiperp"): (
        "target     0.707106780593|00> + (0.50000000042+0.50000000042i)|11> (equatorial, m=2)\n"
        "outcome    psi_perp\n"
        "message    0\n"
        "bits_sent  1\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  0.707106780593|00> + (0.50000000042+0.50000000042i)|11>\n"
    ),
    ("equatorial", 5, "psi"): (
        "target     0.707106780593|00000> + (0.50000000042+0.50000000042i)|11111> (equatorial, m=5)\n"
        "outcome    psi\n"
        "message    11\n"
        "bits_sent  2\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  (0.50000000042-0.50000000042i)|00000> + 0.707106780593|11111>\n"
    ),
    ("equatorial", 5, "psiperp"): (
        "target     0.707106780593|00000> + (0.50000000042+0.50000000042i)|11111> (equatorial, m=5)\n"
        "outcome    psi_perp\n"
        "message    0\n"
        "bits_sent  1\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  0.707106780593|00000> + (0.50000000042+0.50000000042i)|11111>\n"
    ),
    ("equatorial", 12, "psi"): (
        "target     0.707106780593|000000000000> + (0.50000000042+0.50000000042i)|111111111111> (equatorial, m=12)\n"
        "outcome    psi\n"
        "message    11\n"
        "bits_sent  2\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  (0.50000000042-0.50000000042i)|000000000000> + 0.707106780593|111111111111>\n"
    ),
    ("equatorial", 12, "psiperp"): (
        "target     0.707106780593|000000000000> + (0.50000000042+0.50000000042i)|111111111111> (equatorial, m=12)\n"
        "outcome    psi_perp\n"
        "message    0\n"
        "bits_sent  1\n"
        "fidelity   1\n"
        "success    true\n"
        "bob_state  0.707106780593|000000000000> + (0.50000000042+0.50000000042i)|111111111111>\n"
    ),
}


# `analyze`, `montecarlo` and `table` output in every format at m = 3, captured
# once and compared byte for byte; `montecarlo` keys carry the seed of a
# 1000-trial run, 2**70 among them.
GOLDEN_OUTPUTS = {
    ("analyze", "general", "text"): (
        "p_success      0.5\n"
        "expected_bits  0.5\n"
        "branch psi_perp  probability 0.5    bits 1  fidelity 1\n"
        "branch psi       probability 0.5    bits 0  fidelity 0\n"
    ),
    ("analyze", "general", "json"): (
        "{\n"
        '  "p_success": 0.5,\n'
        '  "expected_bits": 0.5,\n'
        '  "per_branch": [\n'
        "    {\n"
        '      "outcome": "psi_perp",\n'
        '      "probability": 0.5,\n'
        '      "bits": 1,\n'
        '      "fidelity": 1.0\n'
        "    },\n"
        "    {\n"
        '      "outcome": "psi",\n'
        '      "probability": 0.5,\n'
        '      "bits": 0,\n'
        '      "fidelity": 0.0\n'
        "    }\n"
        "  ]\n"
        "}\n"
    ),
    ("analyze", "general", "csv"): (
        "outcome,probability,bits,fidelity\n"
        "psi_perp,0.5,1,1.0\n"
        "psi,0.5,0,0.0\n"
    ),
    ("montecarlo", "general", "text", "5"): (
        "trials        1000\n"
        "successes     479\n"
        "total_bits    479\n"
        "success_rate  0.479\n"
        "mean_bits     0.479\n"
        "seed          5\n"
    ),
    ("montecarlo", "general", "json", "5"): (
        "{\n"
        '  "trials": 1000,\n'
        '  "successes": 479,\n'
        '  "total_bits": 479,\n'
        '  "success_rate": 0.479,\n'
        '  "mean_bits": 0.479,\n'
        '  "seed": 5\n'
        "}\n"
    ),
    ("montecarlo", "general", "csv", "5"): (
        "trials,successes,total_bits,success_rate,mean_bits,seed\n"
        "1000,479,479,0.479,0.479,5\n"
    ),
    ("table", "general", "text"): (
        "protocol_name  target_family                              channel              classical_bits  identification  source\n"
        "Shi et al.     α|00⟩+β|11⟩                                one GHZS             1               1-qubit state   literature\n"
        "Liu et al.     α|00⟩+β|11⟩                                two BSs              2               2-qubit ES      literature\n"
        "Dai et al.     α|0000⟩+β|1111⟩                            two GHZSs            1               2-qubit ES      literature\n"
        "Zhan et al.    α|00⟩+β|11⟩                                two BSs              2               2-qubit ES      literature\n"
        "Wang et al.    α|000⟩+β|111⟩                              one GHZS and one BS  0.5             2-qubit ES      literature\n"
        "this protocol  α|0…0⟩+β|1…1⟩ (m=3, probabilistic regime)  one BS               0.5             1-qubit state   computed\n"
    ),
    ("table", "general", "json"): (
        "[\n"
        "  {\n"
        '    "protocol_name": "Shi et al.",\n'
        '    "target_family": "α|00⟩+β|11⟩",\n'
        '    "channel": "one GHZS",\n'
        '    "classical_bits": 1.0,\n'
        '    "identification": "1-qubit state",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "Liu et al.",\n'
        '    "target_family": "α|00⟩+β|11⟩",\n'
        '    "channel": "two BSs",\n'
        '    "classical_bits": 2.0,\n'
        '    "identification": "2-qubit ES",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "Dai et al.",\n'
        '    "target_family": "α|0000⟩+β|1111⟩",\n'
        '    "channel": "two GHZSs",\n'
        '    "classical_bits": 1.0,\n'
        '    "identification": "2-qubit ES",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "Zhan et al.",\n'
        '    "target_family": "α|00⟩+β|11⟩",\n'
        '    "channel": "two BSs",\n'
        '    "classical_bits": 2.0,\n'
        '    "identification": "2-qubit ES",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "Wang et al.",\n'
        '    "target_family": "α|000⟩+β|111⟩",\n'
        '    "channel": "one GHZS and one BS",\n'
        '    "classical_bits": 0.5,\n'
        '    "identification": "2-qubit ES",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "this protocol",\n'
        '    "target_family": "α|0…0⟩+β|1…1⟩ (m=3, probabilistic regime)",\n'
        '    "channel": "one BS",\n'
        '    "classical_bits": 0.5,\n'
        '    "identification": "1-qubit state",\n'
        '    "source": "computed"\n'
        "  }\n"
        "]\n"
    ),
    ("table", "general", "csv"): (
        "protocol_name,target_family,channel,classical_bits,identification,source\n"
        "Shi et al.,α|00⟩+β|11⟩,one GHZS,1.0,1-qubit state,literature\n"
        "Liu et al.,α|00⟩+β|11⟩,two BSs,2.0,2-qubit ES,literature\n"
        "Dai et al.,α|0000⟩+β|1111⟩,two GHZSs,1.0,2-qubit ES,literature\n"
        "Zhan et al.,α|00⟩+β|11⟩,two BSs,2.0,2-qubit ES,literature\n"
        "Wang et al.,α|000⟩+β|111⟩,one GHZS and one BS,0.5,2-qubit ES,literature\n"
        'this protocol,"α|0…0⟩+β|1…1⟩ (m=3, probabilistic regime)",one BS,0.5,1-qubit state,computed\n'
    ),
    ("analyze", "real", "text"): (
        "p_success      1\n"
        "expected_bits  1.5\n"
        "branch psi_perp  probability 0.5    bits 1  fidelity 1\n"
        "branch psi       probability 0.5    bits 2  fidelity 1\n"
    ),
    ("analyze", "real", "json"): (
        "{\n"
        '  "p_success": 1.0,\n'
        '  "expected_bits": 1.5,\n'
        '  "per_branch": [\n'
        "    {\n"
        '      "outcome": "psi_perp",\n'
        '      "probability": 0.5,\n'
        '      "bits": 1,\n'
        '      "fidelity": 1.0\n'
        "    },\n"
        "    {\n"
        '      "outcome": "psi",\n'
        '      "probability": 0.5,\n'
        '      "bits": 2,\n'
        '      "fidelity": 1.0\n'
        "    }\n"
        "  ]\n"
        "}\n"
    ),
    ("analyze", "real", "csv"): (
        "outcome,probability,bits,fidelity\n"
        "psi_perp,0.5,1,1.0\n"
        "psi,0.5,2,1.0\n"
    ),
    ("montecarlo", "real", "text", "5"): (
        "trials        1000\n"
        "successes     1000\n"
        "total_bits    1521\n"
        "success_rate  1\n"
        "mean_bits     1.521\n"
        "seed          5\n"
    ),
    ("montecarlo", "real", "json", "5"): (
        "{\n"
        '  "trials": 1000,\n'
        '  "successes": 1000,\n'
        '  "total_bits": 1521,\n'
        '  "success_rate": 1.0,\n'
        '  "mean_bits": 1.521,\n'
        '  "seed": 5\n'
        "}\n"
    ),
    ("montecarlo", "real", "csv", "5"): (
        "trials,successes,total_bits,success_rate,mean_bits,seed\n"
        "1000,1000,1521,1.0,1.521,5\n"
    ),
    ("table", "real", "text"): (
        "protocol_name  target_family                                                 channel              classical_bits  identification  source\n"
        "Shi et al.     α|00⟩+β|11⟩                                                   one GHZS             1               1-qubit state   literature\n"
        "Liu et al.     α|00⟩+β|11⟩                                                   two BSs              2               2-qubit ES      literature\n"
        "Dai et al.     α|0000⟩+β|1111⟩                                               two GHZSs            1               2-qubit ES      literature\n"
        "Zhan et al.    α|00⟩+β|11⟩                                                   two BSs              2               2-qubit ES      literature\n"
        "Wang et al.    α|000⟩+β|111⟩                                                 one GHZS and one BS  0.5             2-qubit ES      literature\n"
        "this protocol  α|0…0⟩+β|1…1⟩ (m=3, deterministic regime, real coefficients)  one BS               1.5             1-qubit state   computed\n"
    ),
    ("table", "real", "json"): (
        "[\n"
        "  {\n"
        '    "protocol_name": "Shi et al.",\n'
        '    "target_family": "α|00⟩+β|11⟩",\n'
        '    "channel": "one GHZS",\n'
        '    "classical_bits": 1.0,\n'
        '    "identification": "1-qubit state",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "Liu et al.",\n'
        '    "target_family": "α|00⟩+β|11⟩",\n'
        '    "channel": "two BSs",\n'
        '    "classical_bits": 2.0,\n'
        '    "identification": "2-qubit ES",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "Dai et al.",\n'
        '    "target_family": "α|0000⟩+β|1111⟩",\n'
        '    "channel": "two GHZSs",\n'
        '    "classical_bits": 1.0,\n'
        '    "identification": "2-qubit ES",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "Zhan et al.",\n'
        '    "target_family": "α|00⟩+β|11⟩",\n'
        '    "channel": "two BSs",\n'
        '    "classical_bits": 2.0,\n'
        '    "identification": "2-qubit ES",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "Wang et al.",\n'
        '    "target_family": "α|000⟩+β|111⟩",\n'
        '    "channel": "one GHZS and one BS",\n'
        '    "classical_bits": 0.5,\n'
        '    "identification": "2-qubit ES",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "this protocol",\n'
        '    "target_family": "α|0…0⟩+β|1…1⟩ (m=3, deterministic regime, real coefficients)",\n'
        '    "channel": "one BS",\n'
        '    "classical_bits": 1.5,\n'
        '    "identification": "1-qubit state",\n'
        '    "source": "computed"\n'
        "  }\n"
        "]\n"
    ),
    ("table", "real", "csv"): (
        "protocol_name,target_family,channel,classical_bits,identification,source\n"
        "Shi et al.,α|00⟩+β|11⟩,one GHZS,1.0,1-qubit state,literature\n"
        "Liu et al.,α|00⟩+β|11⟩,two BSs,2.0,2-qubit ES,literature\n"
        "Dai et al.,α|0000⟩+β|1111⟩,two GHZSs,1.0,2-qubit ES,literature\n"
        "Zhan et al.,α|00⟩+β|11⟩,two BSs,2.0,2-qubit ES,literature\n"
        "Wang et al.,α|000⟩+β|111⟩,one GHZS and one BS,0.5,2-qubit ES,literature\n"
        'this protocol,"α|0…0⟩+β|1…1⟩ (m=3, deterministic regime, real coefficients)",one BS,1.5,1-qubit state,computed\n'
    ),
    ("analyze", "equatorial", "text"): (
        "p_success      1\n"
        "expected_bits  1.5\n"
        "branch psi_perp  probability 0.5    bits 1  fidelity 1\n"
        "branch psi       probability 0.5    bits 2  fidelity 1\n"
    ),
    ("analyze", "equatorial", "json"): (
        "{\n"
        '  "p_success": 1.0,\n'
        '  "expected_bits": 1.5,\n'
        '  "per_branch": [\n'
        "    {\n"
        '      "outcome": "psi_perp",\n'
        '      "probability": 0.5,\n'
        '      "bits": 1,\n'
        '      "fidelity": 1.0\n'
        "    },\n"
        "    {\n"
        '      "outcome": "psi",\n'
        '      "probability": 0.5,\n'
        '      "bits": 2,\n'
        '      "fidelity": 1.0\n'
        "    }\n"
        "  ]\n"
        "}\n"
    ),
    ("analyze", "equatorial", "csv"): (
        "outcome,probability,bits,fidelity\n"
        "psi_perp,0.5,1,1.0\n"
        "psi,0.5,2,1.0\n"
    ),
    ("montecarlo", "equatorial", "text", "5"): (
        "trials        1000\n"
        "successes     1000\n"
        "total_bits    1521\n"
        "success_rate  1\n"
        "mean_bits     1.521\n"
        "seed          5\n"
    ),
    ("montecarlo", "equatorial", "json", "5"): (
        "{\n"
        '  "trials": 1000,\n'
        '  "successes": 1000,\n'
        '  "total_bits": 1521,\n'
        '  "success_rate": 1.0,\n'
        '  "mean_bits": 1.521,\n'
        '  "seed": 5\n'
        "}\n"
    ),
    ("montecarlo", "equatorial", "csv", "5"): (
        "trials,successes,total_bits,success_rate,mean_bits,seed\n"
        "1000,1000,1521,1.0,1.521,5\n"
    ),
    ("table", "equatorial", "text"): (
        "protocol_name  target_family                                                       channel              classical_bits  identification  source\n"
        "Shi et al.     α|00⟩+β|11⟩                                                         one GHZS             1               1-qubit state   literature\n"
        "Liu et al.     α|00⟩+β|11⟩                                                         two BSs              2               2-qubit ES      literature\n"
        "Dai et al.     α|0000⟩+β|1111⟩                                                     two GHZSs            1               2-qubit ES      literature\n"
        "Zhan et al.    α|00⟩+β|11⟩                                                         two BSs              2               2-qubit ES      literature\n"
        "Wang et al.    α|000⟩+β|111⟩                                                       one GHZS and one BS  0.5             2-qubit ES      literature\n"
        "this protocol  α|0…0⟩+β|1…1⟩ (m=3, deterministic regime, equatorial coefficients)  one BS               1.5             1-qubit state   computed\n"
    ),
    ("table", "equatorial", "json"): (
        "[\n"
        "  {\n"
        '    "protocol_name": "Shi et al.",\n'
        '    "target_family": "α|00⟩+β|11⟩",\n'
        '    "channel": "one GHZS",\n'
        '    "classical_bits": 1.0,\n'
        '    "identification": "1-qubit state",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "Liu et al.",\n'
        '    "target_family": "α|00⟩+β|11⟩",\n'
        '    "channel": "two BSs",\n'
        '    "classical_bits": 2.0,\n'
        '    "identification": "2-qubit ES",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "Dai et al.",\n'
        '    "target_family": "α|0000⟩+β|1111⟩",\n'
        '    "channel": "two GHZSs",\n'
        '    "classical_bits": 1.0,\n'
        '    "identification": "2-qubit ES",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "Zhan et al.",\n'
        '    "target_family": "α|00⟩+β|11⟩",\n'
        '    "channel": "two BSs",\n'
        '    "classical_bits": 2.0,\n'
        '    "identification": "2-qubit ES",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "Wang et al.",\n'
        '    "target_family": "α|000⟩+β|111⟩",\n'
        '    "channel": "one GHZS and one BS",\n'
        '    "classical_bits": 0.5,\n'
        '    "identification": "2-qubit ES",\n'
        '    "source": "literature"\n'
        "  },\n"
        "  {\n"
        '    "protocol_name": "this protocol",\n'
        '    "target_family": "α|0…0⟩+β|1…1⟩ (m=3, deterministic regime, equatorial coefficients)",\n'
        '    "channel": "one BS",\n'
        '    "classical_bits": 1.5,\n'
        '    "identification": "1-qubit state",\n'
        '    "source": "computed"\n'
        "  }\n"
        "]\n"
    ),
    ("table", "equatorial", "csv"): (
        "protocol_name,target_family,channel,classical_bits,identification,source\n"
        "Shi et al.,α|00⟩+β|11⟩,one GHZS,1.0,1-qubit state,literature\n"
        "Liu et al.,α|00⟩+β|11⟩,two BSs,2.0,2-qubit ES,literature\n"
        "Dai et al.,α|0000⟩+β|1111⟩,two GHZSs,1.0,2-qubit ES,literature\n"
        "Zhan et al.,α|00⟩+β|11⟩,two BSs,2.0,2-qubit ES,literature\n"
        "Wang et al.,α|000⟩+β|111⟩,one GHZS and one BS,0.5,2-qubit ES,literature\n"
        'this protocol,"α|0…0⟩+β|1…1⟩ (m=3, deterministic regime, equatorial coefficients)",one BS,1.5,1-qubit state,computed\n'
    ),
    ("montecarlo", "general", "text", "1180591620717411303424"): (
        "trials        1000\n"
        "successes     515\n"
        "total_bits    515\n"
        "success_rate  0.515\n"
        "mean_bits     0.515\n"
        "seed          1180591620717411303424\n"
    ),
    ("montecarlo", "general", "json", "1180591620717411303424"): (
        "{\n"
        '  "trials": 1000,\n'
        '  "successes": 515,\n'
        '  "total_bits": 515,\n'
        '  "success_rate": 0.515,\n'
        '  "mean_bits": 0.515,\n'
        '  "seed": 1180591620717411303424\n'
        "}\n"
    ),
    ("montecarlo", "general", "csv", "1180591620717411303424"): (
        "trials,successes,total_bits,success_rate,mean_bits,seed\n"
        "1000,515,515,0.515,0.515,1180591620717411303424\n"
    ),
}


def golden_argv(command, name, fmt, seed=None):
    extra = [] if seed is None else ["--trials", "1000", "--seed", seed]
    return [command, *GOLDEN_TARGETS[name], "--m=3", *extra, "--format", fmt]


class TestRun:
    def test_forced_perp_json(self, capsys):
        code, out, err = invoke(
            capsys,
            ["run", *GENERAL, "--force-outcome", "psiperp", "--seed", "1",
             "--format", "json"],
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["message"] == "0"
        assert payload["success"] is True
        assert payload["bits_sent"] == 1
        assert payload["target"]["case_tag"] == "general"

    def test_forced_psi_on_general_aborts(self, capsys):
        code, out, _ = invoke(
            capsys, ["run", *GENERAL, "--force-outcome", "psi", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["message"] == "ABORT"
        assert payload["bob_state"] is None
        assert payload["fidelity"] == 0.0

    def test_text_trace(self, capsys):
        code, out, _ = invoke(capsys, ["run", *REAL, "--force-outcome", "psiperp"])
        assert code == 0
        assert out == (
            "target     0.6|00> + 0.8|11> (real, m=2)\n"
            "outcome    psi_perp\n"
            "message    0\n"
            "bits_sent  1\n"
            "fidelity   1\n"
            "success    true\n"
            "bob_state  0.6|00> + 0.8|11>\n"
        )

    def test_csv_row_matches_record(self, capsys):
        code, out, _ = invoke(
            capsys, ["run", *REAL, "--force-outcome", "psi", "--format", "csv"]
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "outcome,message,fidelity,success,bits_sent"
        record = run_trial(canonicalize_target(0.6, 0.8, 2), Outcome.PSI)
        assert row == f"psi,10,{record.fidelity},true,2"

    def test_sampled_outcome_is_seed_deterministic(self, capsys):
        first = invoke(capsys, ["run", *GENERAL, "--seed", "7", "--format", "json"])
        second = invoke(capsys, ["run", *GENERAL, "--seed", "7", "--format", "json"])
        assert first == second
        expected = run_trial(canonicalize_target(0.6, 0.8j, 2), trial_rng(7, 0))
        assert json.loads(first[1])["outcome"] == expected.outcome.value


    @pytest.mark.parametrize("name, m, outcome", sorted(GOLDEN_RUN_TEXT))
    def test_forced_text_matches_golden(self, capsys, name, m, outcome):
        argv = ["run", *GOLDEN_TARGETS[name], f"--m={m}", "--force-outcome", outcome]
        code, out, err = invoke(capsys, argv)
        assert (code, err) == (0, "")
        assert out == GOLDEN_RUN_TEXT[name, m, outcome]


class TestAnalyze:
    def test_equatorial_example_json(self, capsys):
        code, out, _ = invoke(capsys, ["analyze", *EQUATORIAL, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["p_success"] == pytest.approx(1.0, abs=1e-12)
        assert payload["expected_bits"] == pytest.approx(1.5, abs=1e-12)
        assert len(payload["per_branch"]) == 2

    def test_general_text(self, capsys):
        code, out, _ = invoke(capsys, ["analyze", *GENERAL])
        assert code == 0
        assert out == (
            "p_success      0.5\n"
            "expected_bits  0.5\n"
            "branch psi_perp  probability 0.5    bits 1  fidelity 1\n"
            "branch psi       probability 0.5    bits 0  fidelity 0\n"
        )

    def test_csv(self, capsys):
        code, out, _ = invoke(capsys, ["analyze", *GENERAL, "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "outcome,probability,bits,fidelity"
        assert len(lines) == 3


class TestMonteCarlo:
    def test_json_fields_and_window(self, capsys):
        code, out, _ = invoke(
            capsys,
            ["montecarlo", *GENERAL, "--trials", "4000", "--seed", "11",
             "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trials"] == 4000
        assert abs(payload["success_rate"] - 0.5) < 0.05
        assert payload["seed"] == 11

    def test_text(self, capsys):
        code, out, _ = invoke(
            capsys, ["montecarlo", *REAL, "--trials", "50", "--seed", "2"]
        )
        assert code == 0
        assert "trials        50" in out
        assert "success_rate  1" in out

    def test_worker_count_invisible_in_output(self, capsys):
        base = ["montecarlo", *GENERAL, "--trials", "900", "--seed", "13",
                "--format", "json"]
        serial = invoke(capsys, [*base, "--workers", "1"])
        parallel = invoke(capsys, [*base, "--workers", "3"])
        assert serial == parallel


class TestTable:
    def test_csv_six_rows(self, capsys):
        code, out, _ = invoke(capsys, ["table", *REAL, "--format", "csv"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 7
        assert lines[0].startswith("protocol_name,")
        assert lines[-1].split(",")[0] == "this protocol"
        assert {line.split(",")[-1] for line in lines[1:]} == {"literature", "computed"}

    def test_text_alignment(self, capsys):
        code, out, _ = invoke(capsys, ["table", *GENERAL])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 7
        assert lines[0].startswith("protocol_name")
        assert "one BS" in lines[-1]

    def test_json_row_count(self, capsys):
        code, out, _ = invoke(capsys, ["table", *GENERAL, "--format", "json"])
        rows = json.loads(out)
        assert code == 0 and len(rows) == 6
        assert sum(row["source"] == "computed" for row in rows) == 1


class TestGoldenOutputs:
    @pytest.mark.parametrize("key", sorted(GOLDEN_OUTPUTS), ids="-".join)
    def test_matches_golden(self, capsys, key):
        code, out, err = invoke(capsys, golden_argv(*key))
        assert (code, err) == (0, "")
        assert out == GOLDEN_OUTPUTS[key]


class TestCsvSchema:
    """Each CSV output is its JSON records: the keys head it, one row each."""

    RECORDS = {
        "analyze": lambda payload: payload["per_branch"],
        "montecarlo": lambda payload: [payload],
        "table": lambda payload: payload,
    }

    @pytest.mark.parametrize("name", sorted(GOLDEN_TARGETS))
    @pytest.mark.parametrize(
        "command, seed, rows", [("analyze", None, 2), ("montecarlo", "5", 1), ("table", None, 6)]
    )
    def test_header_is_the_json_keys(self, capsys, command, seed, rows, name):
        _, out, _ = invoke(capsys, golden_argv(command, name, "json", seed))
        records = self.RECORDS[command](json.loads(out))
        code, out, _ = invoke(capsys, golden_argv(command, name, "csv", seed))
        header, *cells = csv.reader(io.StringIO(out))
        assert code == 0 and len(records) == rows
        assert header == list(records[0])
        assert cells == [[str(value) for value in record.values()] for record in records]


class TestFormattersNeverDensify:
    """At m = 20 one dense state is 16 MiB; text and CSV output need none."""

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    @pytest.mark.parametrize(
        "command",
        [["run", "--force-outcome", "psiperp"], ["analyze"], ["table"],
         ["montecarlo", "--trials", "1000"]],
        ids=lambda command: command[0],
    )
    def test_peak_under_4_mib_at_m20(self, capsys, command, fmt):
        tracemalloc.start()
        try:
            code = main([*command, *GOLDEN_TARGETS["general"], "--m=20", "--format", fmt])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr().err) == (0, "")
        assert peak < 4 * 2**20


class TestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", *GENERAL, "--seed", "3", "--format", "json"],
            ["analyze", *EQUATORIAL, "--format", "json"],
            ["montecarlo", *GENERAL, "--trials", "300", "--seed", "8",
             "--format", "json"],
            ["table", *REAL, "--format", "csv"],
        ],
    )
    def test_identical_invocations_are_byte_identical(self, capsys, argv):
        assert invoke(capsys, argv) == invoke(capsys, argv)


class TestExitCodes:
    def test_non_normalized_target_is_a_usage_error(self, capsys):
        code, out, err = invoke(
            capsys, ["analyze", "--alpha", "0.9", "--beta-re", "0.9", "--m", "2"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "\n" not in err.strip()

    def test_normalize_flag_repairs_it(self, capsys):
        code, _, _ = invoke(
            capsys,
            ["analyze", "--alpha", "0.9", "--beta-re", "0.9", "--m", "2",
             "--normalize"],
        )
        assert code == 0

    def test_bad_qubit_count(self, capsys):
        code, _, err = invoke(
            capsys, ["analyze", "--alpha", "0.6", "--beta-re", "0.8", "--m", "1"]
        )
        assert code == 2 and "2 qubits" in err

    @pytest.mark.parametrize("m", ["25", "70", "1000000000"])
    def test_qubit_count_above_max(self, capsys, m):
        code, out, err = invoke(
            capsys, ["run", "--alpha", "0.6", "--beta-re", "0.8", "--m", m]
        )
        assert code == 2 and out == ""
        assert err == f"error: target needs at most 24 qubits, got m={m}\n"

    def test_bad_trials(self, capsys):
        code, _, err = invoke(capsys, ["montecarlo", *GENERAL, "--trials", "0"])
        assert code == 2 and "trials" in err

    def test_bad_workers(self, capsys):
        code, _, err = invoke(
            capsys, ["montecarlo", *GENERAL, "--trials", "5", "--workers", "0"]
        )
        assert code == 2 and "workers" in err

    def test_negative_seed(self, capsys):
        code, _, err = invoke(capsys, ["run", *GENERAL, "--seed", "-4"])
        assert code == 2 and "seed" in err

    def test_huge_coefficient_is_a_usage_error(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would exit 1
            code, out, err = invoke(
                capsys, ["analyze", "--alpha", "1e200", "--beta-re", "0", "--m", "3"]
            )
        assert (code, out) == (2, "")
        assert err == (
            "error: alpha**2 + |beta|**2 = 1e+400, not 1 within 1e-09; "
            "pass normalize=True to rescale\n"
        )

    @pytest.mark.parametrize(
        "coefficients",
        [
            ["--alpha", "1e200", "--beta-re", "0"],
            ["--alpha", "1e-320", "--beta-re", "0"],
            ["--alpha", "3e-162", "--beta-re", "3e-162", "--beta-im", "1e-170"],
        ],
        ids=["huge", "subnormal", "tiny"],
    )
    def test_normalize_rescales_extreme_coefficients(self, capsys, coefficients):
        # the squares of these overflow or underflow unless the pair is
        # scaled first; each is a special target, so both branches succeed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = invoke(
                capsys, ["analyze", *coefficients, "--m", "3", "--normalize", "--format", "json"]
            )
        assert (code, err) == (0, "")
        assert json.loads(out)["p_success"] == 1.0

    def test_argparse_errors_exit_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--alpha", "0.6"])  # missing required flags
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["run", *GENERAL, "--force-outcome", "sideways"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("value", ["-1.2e-05", "-1E-3"])
    @pytest.mark.parametrize("flag", ["--alpha", "--beta-re", "--beta-im"])
    def test_negative_exponent_values_parse(self, capsys, flag, value):
        coefficients = {"--alpha": "0.6", "--beta-re": "0", "--beta-im": "0.8"}
        del coefficients[flag]
        base = ["run", "--m", "2", "--normalize", "--force-outcome", "psiperp",
                "--format", "json", *(t for pair in coefficients.items() for t in pair)]
        spaced = invoke(capsys, [*base, flag, value])
        joined = invoke(capsys, [*base, f"{flag}={value}"])
        assert spaced[0] == 0 and spaced == joined
        with pytest.raises(SystemExit) as excinfo:
            main([*base, flag, value, "--bogus"])
        assert excinfo.value.code == 2

    def test_internal_failure_exits_1(self, capsys, monkeypatch):
        def boom(target):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr("bellrsp.cli.exact_analyze", boom)
        code, out, err = invoke(capsys, ["analyze", *GENERAL])
        assert code == 1
        assert out == ""
        assert err == "internal error: wires crossed\n"


class TestFormatState:
    def test_pure_imaginary_amplitude(self):
        state = build_target_state(canonicalize_target(0.6, 0.8j, 2))
        assert format_state(state) == "0.6|00> + 0.8i|11>"

    def test_full_complex_amplitude(self):
        target = canonicalize_target(0.6, complex(0.48, 0.64), 2)
        rendered = format_state(build_target_state(target))
        assert rendered.startswith("0.6|00> + (0.48+0.64i)|11>")

    def test_negative_real(self):
        state = build_target_state(canonicalize_target(0.8, -0.6, 3))
        assert format_state(state) == "0.8|000> + -0.6|111>"


class TestEntryPoints:
    def test_python_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-m", "bellrsp", "analyze", *GENERAL],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "p_success" in result.stdout

    def test_console_script(self):
        result = run_console_script("table", *REAL, "--format", "csv")
        assert result.returncode == 0
        assert result.stdout.count("\n") == 7

    def test_console_script_usage_error(self):
        result = run_console_script()
        assert result.returncode == 2
        # The interpreter exits 2 on its own usage errors too; these lines
        # show that bellrsp's parser is the one that refused.
        assert result.stdout == ""
        assert "usage: bellrsp" in result.stderr
        assert "the following arguments are required: subcommand" in result.stderr
