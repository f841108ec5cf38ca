"""Tagging in forked workers: `train.tag_corpus` splits a large input's
length batches into shares, one per CPU in the affinity mask, and tags all
but the first in forked workers. The output must not depend on how many
there are, a worker's failure must end `tag` with a message, and no worker
may outlive the call."""

import errno
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from conftest import process_alive
from seqtag import cli, corpus, model, train

SRC = os.path.dirname(os.path.dirname(cli.__file__))


@pytest.fixture(scope="module")
def toy_model(tmp_path_factory):
    """An untrained toy model whose projection is scaled up, so that it
    predicts every kind of label."""
    toy = corpus.read_conll(cli.toy_corpus_file())
    setup = train.ExperimentSetup(train_sentences=toy, dev_sentences=toy,
                                  embedding_dim=12, hidden=8)
    tagger, _ = train.build_tagger(setup, 7)
    tagger.proj_w *= 20.0
    out = str(tmp_path_factory.mktemp("model") / "model.sqtg")
    model.save(tagger, out)
    return out


def _cpus(monkeypatch, n):
    """Fake an affinity mask of `n` CPUs, in a process whose OS threads are
    its Python threads: a BLAS pool's threads are not counted."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)
    monkeypatch.setattr(train, "_os_threads", threading.active_count)


def _count_shares(monkeypatch):
    """The share counts of each parallel tag_corpus call, as a list that
    fills in as they run."""
    counts = []
    real = train._tag_in_workers

    def counting(tagger, extractor, shares):
        counts.append(len(shares))
        return real(tagger, extractor, shares)

    monkeypatch.setattr(train, "_tag_in_workers", counting)
    return counts


def _tag(model_path, input_path, output):
    return cli.main(["tag", "--model", model_path, "--input", input_path,
                     "--output", output])


def test_output_is_the_same_for_any_worker_count(tmp_path, toy_model,
                                                 toy_path, monkeypatch):
    monkeypatch.setattr(train, "WORKER_TOKENS", 1)
    counts = _count_shares(monkeypatch)
    output = str(tmp_path / "tagged.conll")
    tagger, extractor = train.load_tagger(toy_model)
    files, reports = [], []
    for n in (1, 2, 3):
        _cpus(monkeypatch, n)
        assert _tag(toy_model, toy_path, output) == 0
        files.append([open(path, "rb").read()
                      for path in (output, output + ".manifest.json")])
        reports.append(train.evaluate_tagger(tagger, extractor,
                                             corpus.read_conll(toy_path)))
        assert multiprocessing.active_children() == []
    assert counts == [2, 2, 3, 3]
    assert files[0] == files[1] == files[2]
    assert reports[0] == reports[1] == reports[2]
    assert 0 < reports[0].overall.correct < reports[0].overall.predicted


def test_each_share_is_whole_batches_balanced_by_tokens():
    batches = [[[0] * length] * rows for length, rows in
               ((30, 17), (5, 102), (7, 73), (1, 40), (12, 42), (30, 3))]
    shares = train._token_shares(batches, 2)
    assert sorted(map(id, batches)) == sorted(
        id(b) for share in shares for b in share)
    loads = [sum(map(train._tokens, share)) for share in shares]
    assert abs(loads[0] - loads[1]) <= max(map(train._tokens, batches))
    assert shares == train._token_shares(batches, 2)


def test_a_small_input_one_batch_one_cpu_or_a_thread_forks_nothing(
        tmp_path, toy_model, toy_path, monkeypatch):
    def no_fork(*_):
        raise AssertionError("forked")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    output = str(tmp_path / "tagged.conll")
    _cpus(monkeypatch, 2)  # the toy corpus is under 2 * WORKER_TOKENS
    assert _tag(toy_model, toy_path, output) == 0
    monkeypatch.setattr(train, "WORKER_TOKENS", 1)
    one_batch = tmp_path / "one.conll"
    one_batch.write_text("Hà_Nội Np B-NP\nđẹp A B-AP\n\n", encoding="utf-8")
    assert _tag(toy_model, str(one_batch), output) == 0
    _cpus(monkeypatch, 1)
    assert _tag(toy_model, toy_path, output) == 0
    _cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert _tag(toy_model, toy_path, output) == 0
    finally:
        stop.set()
        thread.join()
    with pytest.raises(AssertionError, match="forked"):
        _tag(toy_model, toy_path, output)


@pytest.mark.parametrize("failure", ["exit", "raise", "interrupt"])
def test_a_failed_worker_ends_tag_with_a_message(tmp_path, toy_model,
                                                 toy_path, monkeypatch,
                                                 capfd, failure):
    parent = os.getpid()
    real = train._tag_share

    def failing(*args):
        if os.getpid() != parent:
            if failure == "exit":
                os._exit(7)
            raise (RuntimeError("no labels here") if failure == "raise"
                   else KeyboardInterrupt)
        return real(*args)

    monkeypatch.setattr(train, "_tag_share", failing)
    monkeypatch.setattr(train, "WORKER_TOKENS", 1)
    _cpus(monkeypatch, 2)
    output = tmp_path / "tagged.conll"
    assert _tag(toy_model, toy_path, str(output)) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: a tagging worker ")
    assert "Traceback" not in err
    assert {"exit": "exited with code 7",
            "raise": "failed: RuntimeError: no labels here",
            "interrupt": "exited with code 1"}[failure] in err
    assert multiprocessing.active_children() == []
    assert not output.exists()


def test_a_worker_that_cannot_start_ends_tag_with_a_message(
        tmp_path, toy_model, toy_path, monkeypatch, capfd):
    def no_process(self):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        no_process)
    monkeypatch.setattr(train, "WORKER_TOKENS", 1)
    _cpus(monkeypatch, 2)
    output = tmp_path / "tagged.conll"
    assert _tag(toy_model, toy_path, str(output)) == 1
    assert capfd.readouterr().err == (f"error: cannot start a tagging worker: "
                                      f"{os.strerror(errno.EAGAIN)}\n")
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == []


def test_a_failed_worker_in_dev_evaluation_ends_train_with_a_message(
        tmp_path, toy_path, monkeypatch, capfd):
    parent = os.getpid()
    real = train._tag_share

    def failing(*args):
        if os.getpid() != parent:
            os._exit(7)
        return real(*args)

    monkeypatch.setattr(train, "_tag_share", failing)
    monkeypatch.setattr(train, "WORKER_TOKENS", 1)
    _cpus(monkeypatch, 2)
    out = tmp_path / "model.sqtg"
    assert cli.main(["train", "--train", toy_path, "--dev", toy_path,
                     "--hidden", "4", "--embedding-dim", "4", "--max-epochs",
                     "1", "--quiet", "--out", str(out)]) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: a tagging worker exited with code 7")
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []
    assert not out.exists()


def test_a_failure_in_the_parent_stops_every_worker(toy_model, toy_path,
                                                    monkeypatch):
    parent = os.getpid()
    real = train._tag_share

    def failing_here(*args):
        if os.getpid() == parent:
            raise RuntimeError("parent share failed")
        time.sleep(60)  # a worker still busy when the parent fails
        return real(*args)

    monkeypatch.setattr(train, "_tag_share", failing_here)
    monkeypatch.setattr(train, "WORKER_TOKENS", 1)
    _cpus(monkeypatch, 3)
    tagger, extractor = train.load_tagger(toy_model)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="parent share failed"):
        train.tag_corpus(tagger, extractor, corpus.read_conll(toy_path))
    assert time.monotonic() - started < 30  # stopped, not waited for
    assert multiprocessing.active_children() == []


def test_a_worker_exits_when_its_parent_is_killed():
    """A worker whose labels outgrow a pipe's 64 KiB buffer blocks in its
    send until the parent reads them; once the parent is gone, it exits."""
    script = ("import multiprocessing, os, time; from seqtag import train\n"
              "parent = os.getpid()\n"
              "def share(tagger, extractor, batches):\n"
              "    if os.getpid() == parent:  # busy with share 0\n"
              "        print(*[p.pid for p in multiprocessing.active_children()],"
              " flush=True)\n"
              "        time.sleep(60)\n"
              "    return [['O'] * 10 ** 6]\n"
              "train._tag_share = share\n"
              "train._tag_in_workers(None, None, [[], [[]]])")
    parent = subprocess.Popen([sys.executable, "-c", script],
                              stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC))
    try:
        pid = int(parent.stdout.readline())
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
    try:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and process_alive(pid):
            time.sleep(0.05)
        assert not process_alive(pid)
    finally:
        if process_alive(pid):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="the affinity mask holds one CPU: nothing forks")
def test_tag_with_one_blas_thread_writes_the_default_bytes(tmp_path, toy_model,
                                                           toy_path):
    """`python -m seqtag tag` on the toy corpus repeated past 2 *
    WORKER_TOKENS tokens: with OPENBLAS_NUM_THREADS=1 the process runs one
    OS thread and forks a tagging worker, through the real gate; with the
    variable unset the BLAS pool keeps it serial. The output and the
    manifest are the same bytes."""
    tokens = sum(map(len, corpus.read_conll(toy_path)))
    with open(toy_path, encoding="utf-8") as handle:
        text = handle.read().rstrip("\n") + "\n\n"
    data = tmp_path / "input.conll"
    data.write_text(text * (2 * train.WORKER_TOKENS // tokens + 1),
                    encoding="utf-8")
    # report each parallel call, then run the module as `python -m` does
    script = ("import runpy, sys; from seqtag import train; "
              "real = train._tag_in_workers\n"
              "def workers(tagger, extractor, shares):\n"
              "    print('tagging workers', len(shares) - 1, file=sys.stderr)\n"
              "    return real(tagger, extractor, shares)\n"
              "train._tag_in_workers = workers\n"
              "runpy.run_module('seqtag', run_name='__main__', alter_sys=True)")
    files = []
    for blas in ("1", None):
        work = tmp_path / f"blas-{blas}"
        work.mkdir()
        env = {k: v for k, v in os.environ.items() if k not in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = SRC
        if blas:
            env["OPENBLAS_NUM_THREADS"] = blas
        result = subprocess.run(
            [sys.executable, "-c", script, "tag", "--model", toy_model,
             "--input", str(data), "--output", "out.conll"], cwd=work,
            env=env, capture_output=True, text=True, timeout=600)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ("tagging workers 1\n" if blas else "")
        files.append([(work / name).read_bytes() for name in
                      ("out.conll", "out.conll.manifest.json")])
    assert files[0] == files[1]


@pytest.mark.parametrize("gold", [True, False], ids=["gold", "no-gold"])
def test_tag_input_errors_keep_their_line_numbers(tmp_path, toy_model,
                                                  capsys, gold):
    token = "Hà_Nội Np B-NP B-LOC\n" if gold else "Hà_Nội Np B-NP\n"
    data = tmp_path / "in.conll"
    data.write_text("-DOCSTART-\n\n" + token * 2 + "\n" + token + "short\n",
                    encoding="utf-8")
    assert cli.main(["tag", "--model", toy_model, "--input", str(data)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: line 7: expected at least "
                          f"{4 if gold else 3} columns")


def test_importing_seqtag_loads_no_process_pool_module():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = ("import sys, seqtag; print(sorted(m for m in sys.modules if "
             "m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")
