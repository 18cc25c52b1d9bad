"""Replay the output-equivalence corpus: every recorded invocation must give
the same exit code, stdout and stderr, byte for byte."""

import math
import random
from fractions import Fraction

import numpy as np
from make_corpus import corpus_argvs, digest, invoke, read_corpus

from bellrsp import statevector


def test_corpus_lists_the_builders_argvs():
    assert [argv for _, argv in read_corpus()] == corpus_argvs()


def test_every_invocation_replays_byte_identically():
    for sha, argv in read_corpus():
        code, out, err = invoke(argv)
        if digest(code, out, err) != sha:
            head = "\n".join((out + err).splitlines()[:5])
            raise AssertionError(
                f"output changed for argv {argv}: exit {code}, first lines:\n{head}\n"
                f"{blas_note()}"
            )


def blas_note(vectors: int = 2000) -> str:
    """How this numpy/BLAS build sums the squares in ``statevector._norm``.

    The recorded bytes hold for one build: OpenBLAS's dot may fuse
    r0*r0 + r1*r1 into fma(r1, r1, r0*r0), and the norm then differs in the
    last bit for some vectors. The fused sum is computed exactly here, as a
    ``Fraction`` rounded once."""
    rng = random.Random(0)
    fused = plain = 0
    for _ in range(vectors):
        r0, r1 = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
        norm = float(statevector._norm(np.array([r0, r1], dtype=complex)))
        fused += norm == math.sqrt(float(Fraction(r1) * Fraction(r1) + Fraction(r0 * r0)))
        plain += norm == math.sqrt(r0 * r0 + r1 * r1)
    return (
        f"this host's _norm equals the fused sqrt(fma(r1, r1, r0*r0)) for "
        f"{fused} of {vectors} random real 2-vectors, the plain "
        f"sqrt(r0*r0 + r1*r1) for {plain}"
    )
