"""Training with a direction peer: `train.DirectionPeer` runs every layer's
"bwd" cell in a forked process over a shared `theta` while the caller runs
"fwd". The loss, the gradient and every training artifact must keep the
serial run's bits, a peer's failure must end `train` with a message, and no
peer may outlive its run."""

import errno
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from conftest import process_alive
from seqtag import cli, corpus, model, train
from seqtag.numerics import derive_rng

SRC = os.path.dirname(os.path.dirname(cli.__file__))


def _tagger(cell="lstm", layers=2, dropout=0.0, hidden=4, input_dim=5):
    config = model.TaggerConfig(labels=corpus.label_alphabet(("LOC",)),
                                input_dim=input_dim, hidden=hidden,
                                layers=layers, cell=cell, dropout=dropout)
    return model.init_params(config, derive_rng(5, 0))


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("layers", [1, 2, 3])
@pytest.mark.parametrize("cell", ["lstm", "rnn"])
def test_a_peer_keeps_every_bit_of_the_loss_and_gradient(cell, layers, dropout):
    tagger = _tagger(cell, layers, dropout)
    lengths = (1, 2, 7, 30, 7, 1)  # the peer's buffers are reused each step
    with train.DirectionPeer(tagger, max(lengths)) as peer:
        shared = model.Tagger(tagger.config, theta=peer.theta)
        assert np.array_equal(shared.theta, tagger.theta)
        for k, T in enumerate(lengths):
            rng = derive_rng(k, 1)
            inputs = rng.normal(size=(T, tagger.config.input_dim))
            gold = rng.integers(0, len(tagger.config.labels), size=T)
            loss, grad = model.loss_and_gradients(
                tagger, inputs, gold, rng=derive_rng(k, 2) if dropout else None)
            peer_loss, peer_grad = model.loss_and_gradients(
                shared, inputs, gold, rng=derive_rng(k, 2) if dropout else None,
                peer=peer)
            assert peer_grad is peer.grad
            assert loss == peer_loss
            names = [name for name, a in model.Tagger(
                tagger.config, theta=grad - peer_grad).param_items() if a.any()]
            assert names == []
            assert np.array_equal(grad, peer_grad)


def test_a_peer_serves_only_its_own_vectors():
    tagger = _tagger()
    inputs, gold = np.zeros((3, 5)), [0, 0, 0]
    with train.DirectionPeer(tagger, 3) as peer:
        shared = model.Tagger(tagger.config, theta=peer.theta)
        for other, grad in ((tagger, None), (shared, np.zeros_like(peer.grad))):
            with pytest.raises(ValueError, match="peer.theta"):
                model.loss_and_gradients(other, inputs, gold, grad=grad,
                                         peer=peer)
    with pytest.raises(ValueError, match="bidirectional"):
        train.DirectionPeer(model.init_params(
            model.TaggerConfig(labels=["O"], input_dim=2, bidirectional=False),
            derive_rng(0, 0)), 3)
    assert multiprocessing.active_children() == []


def _fork_allowed(monkeypatch, cpus=2):
    """Fake an affinity mask of `cpus` CPUs in a process whose OS threads are
    its Python threads, and let a run of any size train with a peer."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(train, "_os_threads", threading.active_count)
    monkeypatch.setattr(train, "PEER_WORK", 0)


def _count_peers(monkeypatch):
    """The number of DirectionPeers made, as a list that fills in."""
    made = []
    real = train.DirectionPeer

    def counting(*args):
        made.append(1)
        return real(*args)

    monkeypatch.setattr(train, "DirectionPeer", counting)
    return made


def _train_and_tag(tmp_path, toy_path, name, extra=()):
    out = tmp_path / name
    assert cli.main(["train", "--train", toy_path, "--dev", toy_path,
                     "--hidden", "6", "--embedding-dim", "8", "--features",
                     "word,case", "--max-epochs", "3", "--quiet", "--out",
                     str(out), *extra]) == 0
    assert cli.main(["tag", "--model", str(out), "--input", toy_path,
                     "--output", str(out) + ".tagged"]) == 0
    return [(out.parent / (name + suffix)).read_bytes()
            for suffix in ("", ".log", ".tagged")]


def test_training_with_a_peer_writes_the_serial_bytes(tmp_path, toy_path,
                                                      toy_sentences,
                                                      monkeypatch):
    serial = _train_and_tag(tmp_path, toy_path, "serial.sqtg")
    _fork_allowed(monkeypatch)
    made = _count_peers(monkeypatch)
    # a dev evaluation forks tagging workers beside the peer
    monkeypatch.setattr(train, "WORKER_TOKENS", 1)
    assert _train_and_tag(tmp_path, toy_path, "peer.sqtg") == serial
    assert made == [1]
    assert multiprocessing.active_children() == []

    thetas, logs = [], []
    for peer in (False, True):
        monkeypatch.setattr(train, "PEER_WORK", 0 if peer else np.inf)
        tagger, extractor = train.build_tagger(train.ExperimentSetup(
            toy_sentences, toy_sentences, embedding_dim=8, hidden=6,
            dropout=0.5), 3)
        theta = tagger.theta
        best, log = train.train(tagger, toy_sentences, toy_sentences,
                                extractor, train.TrainConfig(max_epochs=2))
        assert tagger.theta is theta
        thetas.append((theta, best.theta))
        logs.append(log.to_text())
    assert made == [1, 1]
    assert np.array_equal(thetas[0][0], thetas[1][0])
    assert np.array_equal(thetas[0][1], thetas[1][1])
    assert logs[0] == logs[1]


def test_a_unidirectional_tagger_or_a_small_run_trains_without_a_peer(
        tmp_path, toy_path, toy_sentences, monkeypatch):
    _fork_allowed(monkeypatch)
    made = _count_peers(monkeypatch)
    _train_and_tag(tmp_path, toy_path, "uni.sqtg", ["--no-bidi"])
    tagger, _ = train.build_tagger(train.ExperimentSetup(
        toy_sentences, toy_sentences, feature_set=("word", "case"),
        embedding_dim=8, hidden=6), 0)
    bwd = sum(a.size for name, a in tagger.param_items() if ".bwd." in name)
    work = sum(map(len, toy_sentences)) * bwd // len(toy_sentences)
    monkeypatch.setattr(train, "PEER_WORK", work + 1)
    _train_and_tag(tmp_path, toy_path, "small.sqtg")
    assert made == []
    monkeypatch.setattr(train, "PEER_WORK", work)
    _train_and_tag(tmp_path, toy_path, "large.sqtg")
    assert made == [1]


def test_a_second_thread_or_one_cpu_makes_no_fork(tmp_path, toy_path,
                                                  monkeypatch):
    def no_fork(*_):
        raise AssertionError("forked")

    _fork_allowed(monkeypatch, cpus=1)
    monkeypatch.setattr(train, "WORKER_TOKENS", 1)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    _train_and_tag(tmp_path, toy_path, "one-cpu.sqtg")
    _fork_allowed(monkeypatch, cpus=2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        _train_and_tag(tmp_path, toy_path, "thread.sqtg")
    finally:
        stop.set()
        thread.join()
    with pytest.raises(AssertionError, match="forked"):
        _train_and_tag(tmp_path, toy_path, "forks.sqtg")


def test_fork_cpus_counts_os_threads_and_needs_proc(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert train._os_threads() >= 2
        assert train._fork_cpus() == 1
    finally:
        stop.set()
        thread.join()
    monkeypatch.setattr(train, "_os_threads", lambda: 1)
    assert train._fork_cpus() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert train._fork_cpus() == 1
    monkeypatch.undo()

    def no_proc(path):
        raise FileNotFoundError(2, "No such file or directory", path)

    monkeypatch.setattr(os, "listdir", no_proc)
    assert train._fork_cpus() == 1


def _mini_train(toy_sentences, **config):
    tagger, extractor = train.build_tagger(train.ExperimentSetup(
        toy_sentences, toy_sentences, embedding_dim=8, hidden=6), 3)
    return tagger, lambda: train.train(
        tagger, toy_sentences, toy_sentences, extractor,
        train.TrainConfig(**config))


def test_no_peer_outlives_a_run_that_returns_or_raises(toy_sentences,
                                                       monkeypatch):
    _fork_allowed(monkeypatch)
    made = _count_peers(monkeypatch)
    _, run = _mini_train(toy_sentences, max_epochs=1)
    run()
    assert multiprocessing.active_children() == []

    tagger, run = _mini_train(toy_sentences, max_epochs=2)
    tagger.proj_w[0, 0] = np.nan
    with pytest.raises(train.NonFiniteLoss, match="epoch 1"):
        run()
    assert multiprocessing.active_children() == []
    assert np.isnan(tagger.proj_w[0, 0])

    real_clip, steps = train.clip_gradients, []

    def failing_clip(grads, max_norm):
        steps.append(1)
        if len(steps) == 30:
            raise RuntimeError("mid-epoch")
        return real_clip(grads, max_norm)

    monkeypatch.setattr(train, "clip_gradients", failing_clip)
    tagger, run = _mini_train(toy_sentences, max_epochs=2)
    before = tagger.theta.copy()
    with pytest.raises(RuntimeError, match="mid-epoch"):
        run()
    assert multiprocessing.active_children() == []
    assert made == [1, 1, 1]
    # the 29 updates made in the shared copy are written back
    assert not np.array_equal(tagger.theta, before)


@pytest.mark.parametrize("failure", ["exit", "raise", "interrupt"])
def test_a_failed_peer_ends_train_with_a_message(tmp_path, toy_path,
                                                 monkeypatch, capfd, failure):
    parent = os.getpid()
    real = model._run_direction

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            if failure == "exit":
                os._exit(7)
            raise (RuntimeError("no states here") if failure == "raise"
                   else KeyboardInterrupt)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "_run_direction", failing)
    _fork_allowed(monkeypatch)
    out = tmp_path / "model.sqtg"
    assert cli.main(["train", "--train", toy_path, "--dev", toy_path,
                     "--hidden", "4", "--embedding-dim", "4", "--max-epochs",
                     "1", "--quiet", "--out", str(out)]) == 1
    err = capfd.readouterr().err
    assert err.startswith("error: a training worker ")
    assert "Traceback" not in err
    assert {"exit": "exited with code 7",
            "raise": "failed: RuntimeError: no states here",
            "interrupt": "exited with code 1"}[failure] in err
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == []


def test_a_peer_that_cannot_start_ends_train_with_a_message(
        tmp_path, toy_path, monkeypatch, capfd):
    def no_process(self):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                        no_process)
    _fork_allowed(monkeypatch)
    out = tmp_path / "model.sqtg"
    assert cli.main(["train", "--train", toy_path, "--dev", toy_path,
                     "--hidden", "4", "--embedding-dim", "4", "--max-epochs",
                     "1", "--quiet", "--out", str(out)]) == 1
    assert capfd.readouterr().err == (f"error: cannot start a training "
                                      f"worker: {os.strerror(errno.EAGAIN)}\n")
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == []


def test_a_failed_peer_fails_its_ablation_row(toy_sentences, monkeypatch):
    parent = os.getpid()
    real = model._backprop_direction

    def failing(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return real(*args, **kwargs)

    monkeypatch.setattr(model, "_backprop_direction", failing)
    _fork_allowed(monkeypatch)
    setup = train.ExperimentSetup(toy_sentences, toy_sentences,
                                  embedding_dim=4, hidden=4)
    rows = train.ablate(setup, [("Bi-LSTM", {}), ("LSTM", {"bidirectional":
                                                           False})],
                        train.TrainConfig(max_epochs=1))
    assert rows[0].error == "WorkerFailed: a training worker exited with code 3"
    assert rows[1].error is None
    assert "FAILED: WorkerFailed" in train.render_ablation(rows)
    assert multiprocessing.active_children() == []


def test_a_peer_exits_when_its_parent_is_killed(tmp_path):
    script = ("import sys, time; from seqtag import model, train; "
              "t = model.init_params(model.TaggerConfig(labels=['O'], "
              "input_dim=3, hidden=2), __import__('numpy').random."
              "default_rng(0)); p = train.DirectionPeer(t, 4); "
              "print(p._process.pid, flush=True); time.sleep(60)")
    parent = subprocess.Popen([sys.executable, "-c", script],
                              stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC))
    try:
        pid = int(parent.stdout.readline())
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline and process_alive(pid):
        time.sleep(0.05)
    assert not process_alive(pid)


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="the affinity mask holds one CPU: no peer runs")
def test_train_with_one_blas_thread_writes_the_default_bytes(tmp_path,
                                                             toy_path):
    """`python -m seqtag train` on the toy corpus at the default
    architecture: with OPENBLAS_NUM_THREADS=1 the process runs one OS thread
    and trains with a peer, through the real gate; with the variable unset
    the BLAS pool keeps it serial. The artifacts are the same bytes."""
    # report each peer made, then run the module as `python -m` does
    script = ("import runpy, sys; from seqtag import train; "
              "real = train.DirectionPeer\n"
              "def peer(*args):\n"
              "    print('direction peer', file=sys.stderr)\n"
              "    return real(*args)\n"
              "train.DirectionPeer = peer\n"
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
            [sys.executable, "-c", script, "train", "--train", toy_path,
             "--dev", toy_path, "--max-epochs", "2", "--quiet", "--out",
             "m.sqtg"], cwd=work, env=env, capture_output=True, text=True,
            timeout=600)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ("direction peer\n" if blas else "")
        files.append([(work / name).read_bytes() for name in
                      ("m.sqtg", "m.sqtg.log", "m.sqtg.manifest.json")])
    assert files[0] == files[1]
