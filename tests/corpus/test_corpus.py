"""Replay the output-equivalence corpus: every recorded invocation must give
the same exit code, stdout and stderr, byte for byte."""

from make_corpus import corpus_argvs, digest, invoke, read_corpus


def test_corpus_lists_the_builders_argvs():
    assert [argv for _, argv in read_corpus()] == corpus_argvs()


def test_every_invocation_replays_byte_identically():
    for sha, argv in read_corpus():
        code, out, err = invoke(argv)
        if digest(code, out, err) != sha:
            head = "\n".join((out + err).splitlines()[:5])
            raise AssertionError(
                f"output changed for argv {argv}: exit {code}, first lines:\n{head}"
            )
