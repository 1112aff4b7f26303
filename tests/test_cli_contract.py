"""The command line's contract, as one property per subcommand.

Each example runs `cli.main` in-process with one or two drawn options,
or config, spec or head keys, on one toy corpus, model and encode
directory built per module. A drawn value is a boundary value (`BOUNDARY`)
or a random draw. Every run must
- exit 0, 1 or argparse's 2;
- raise nothing but `SystemExit`, warnings included;
- on 1, print one stderr line starting `error:` (with `--keep-going`,
  one `<command> failed for <input>: ...` line per failed input may take
  its place), and on 0 print nothing there;
- write no output when it stops before its work starts, so its output
  directory, absent before the run, is absent after it.
A command's work starts where it first generates a video (gen-corpus),
adapts a batch (train) or reads an input (encode, decode, summary);
eval writes only once it is done. Values that ask for unbounded but
valid work (a large `--count`, `iterations` or `--trials`, an
extent or width below its cap) are not drawn.
"""

import io
import warnings
from contextlib import redirect_stderr, redirect_stdout
from itertools import count

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vfuncta import codec, data, training
from vfuncta.cli import main
from vfuncta.errors import U32_MAX

BOUNDARY = ["-1", "0", "1", str(2**32), str(2**64), "nan", "inf", "-inf", "1e38", "1e-300",
            "1e-320", "abc", "", "0.5", "-0.0", "1e308"]

# the toy corpus: 4 train and 2 test videos of 4 frames of 8x8 pixels
CORPUS_SPEC = {"frames": "4", "height": "8", "width": "8"}
TRAIN_KEYS = {"batch_frames": "2", "coords_per_frame": "16", "layers": "2", "hidden": "8",
              "video_dim": "8", "frame_dim": "4", "inner_steps": "2", "meta_lr": "1e-5",
              "iterations": "2", "seed": "3"}
HEAD_KEYS = {"seed": "0"}

# the function whose first call starts each command's work
WORK = {"gen-corpus": (data, "gen_synthetic"), "train": (training, "adapt"),
        "encode": (data, "load_video"), "decode": (codec, "load_encoding"),
        "summary": (codec, "load_encoding")}

ANY = st.one_of(st.sampled_from(BOUNDARY), st.integers().map(str), st.floats().map(repr))


def ints(lo, hi, refused_above=None):
    """Random integers in [lo, hi] mixed with the boundary values. A
    boundary integer above `hi` is drawn only where a check refuses it,
    above `refused_above`, since below that it asks for more work."""
    def cheap(value):
        try:
            number = int(value)
        except ValueError:
            return True
        return number <= hi or (refused_above is not None and number > refused_above)
    return st.one_of(st.sampled_from([v for v in BOUNDARY if cheap(v)]),
                     st.integers(lo, hi).map(str))


def words(*valid):
    return st.sampled_from(list(valid) + BOUNDARY)


SWITCH = st.none()  # a flag that takes no value

GEN_CORPUS_FLAGS = {"--count": ints(-2, 4), "--seed": ANY, "--split": ANY}
SPEC_KEYS = {"family": words(*data.FAMILIES), "frames": ints(-2, 12, U32_MAX),
             "height": ints(-2, 24, U32_MAX), "width": ints(-2, 24, U32_MAX),
             "amplitude": ANY, "blob_sigma": ANY, "speed_min": ANY, "speed_max": ANY,
             "trajectories": words("line", "circle", "circle,line", " , ", "line,spiral")}
TRAIN_FLAGS = {"--checkpoint-every": ints(-2, 3, 3), "--checkpoint-dir": SWITCH,
               "--resume": SWITCH, "--all-splits": SWITCH}
CONFIG_KEYS = {"batch_frames": ints(-2, 6), "coords_per_frame": ints(-2, 80, 64),
               **{key: ints(-2, 12, U32_MAX) for key in ("layers", "hidden", "video_dim",
                                                         "frame_dim")},
               "inner_steps": ints(-2, 4), "iterations": ints(-2, 4), "inner_lr": ANY,
               "meta_lr": ANY, "omega0": ANY, "seed": ANY,
               "precision": words("float32", "float64")}
ENCODE_FLAGS = {"--batch-frames": ints(-2, 6), "--inner-steps": ints(-2, 4),
                "--inner-lr": ANY, "--jobs": ints(-2, 3, 3), "--report": SWITCH,
                "--keep-going": SWITCH}
DECODE_FLAGS = {"--originals": SWITCH, "--jobs": ints(-2, 3, 3), "--keep-going": SWITCH}
SUMMARY_FLAGS = {"--keep-going": SWITCH}
EVAL_FLAGS = {"--task": words("regression", "binary"), "--seeds": ints(-2, 3),
              "--modes": words("v", "phi,combined", "v,v", "v,bogus", " , ")}
HEAD_CONFIG_KEYS = {"seed": ANY}


def draws(*tables):
    """One or two distinct names from the tables, each with a drawn value."""
    options = {name: values for table in tables for name, values in table.items()}
    return (st.lists(st.sampled_from(sorted(options)), min_size=1, max_size=2, unique=True)
            .flatmap(lambda names: st.tuples(*(st.tuples(st.just(n), options[n])
                                               for n in names)))
            .map(dict))


CONTRACT = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """The toy corpus, a model trained on it with a checkpoint at
    iteration 1, the encodings of the whole corpus, and a counter naming
    each example's directory."""
    root = tmp_path_factory.mktemp("contract")
    key_file(root / "spec.cfg", CORPUS_SPEC)
    key_file(root / "run.cfg", TRAIN_KEYS)
    with redirect_stdout(io.StringIO()):
        assert main(["gen-corpus", "--out", str(root / "corpus"), "--count", "6", "--seed", "1",
                     "--spec", str(root / "spec.cfg")]) == 0
        assert main(["train", "--corpus", str(root / "corpus"), "--config", str(root / "run.cfg"),
                     "--out", str(root / "m.vfnc"), "--checkpoint-dir", str(root / "ck"),
                     "--checkpoint-every", "1"]) == 0
        videos = sorted(str(p) for p in (root / "corpus").glob("*.rawvid"))
        assert main(["encode", "--model", str(root / "m.vfnc"), "--out", str(root / "enc"),
                     "--inner-steps", "1", *videos]) == 0
    return root, count()


def key_file(path, keys: dict) -> str:
    path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    return str(path)


def flags(drawn: dict, table: dict, paths: dict) -> list[str]:
    """The drawn options of `table` as arguments: a switch, the path
    `paths` gives for it where it names one, else `--flag=value`."""
    argv = []
    for name, value in drawn.items():
        if name in paths:
            argv += [name, str(paths[name])]
        elif name in table:
            argv.append(name if value is None else f"{name}={value}")
    return argv


def run(argv: list[str], out, command: str) -> list[str]:
    """Run the command line on `argv` and check the contract, where
    `out` is the one path the run may write, absent before it; returns
    the stderr lines."""
    started = []
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(), \
            redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("error")
        if command in WORK:
            module, name = WORK[command]
            work = getattr(module, name)
            mp.setattr(module, name, lambda *a, **k: (started.append(name), work(*a, **k))[1])
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    lines = err.getvalue().splitlines()
    assert rc in (0, 1, 2), (rc, argv)
    if rc == 0:
        assert lines == [], argv
    if rc == 1:
        assert (len(lines) == 1 and lines[0].startswith("error: ")
                or "--keep-going" in argv and lines
                and all(line.startswith(f"{command} failed for ") for line in lines)), \
            (lines, argv)
    if rc != 0 and not started:
        assert not out.exists(), (lines, argv)
    return lines


@CONTRACT
@given(draws(GEN_CORPUS_FLAGS, SPEC_KEYS))
@example({"blob_sigma": "1e-300"})
@example({"speed_min": "1e308", "speed_max": "1e308"})
@example({"blob_sigma": "1e308"})
def test_gen_corpus_keeps_the_contract(toy, drawn):
    root, n = toy
    out = root / f"out{next(n)}"
    spec = key_file(root / "spec_example.cfg",
                    {**CORPUS_SPEC, **{k: v for k, v in drawn.items() if k in SPEC_KEYS}})
    argv = ["gen-corpus", "--out", str(out), "--count", "2", "--spec", spec]
    run(argv + flags(drawn, GEN_CORPUS_FLAGS, {}), out, "gen-corpus")


@CONTRACT
@given(draws(TRAIN_FLAGS, CONFIG_KEYS), st.booleans())
@example({"coords_per_frame": "100000"}, True)
def test_train_keeps_the_contract(toy, drawn, via_set):
    """Drawn config keys go into the config file, or with `via_set` to
    `--set` flags."""
    root, n = toy
    out = root / f"out{next(n)}"
    keys = {k: v for k, v in drawn.items() if k in CONFIG_KEYS}
    config = key_file(root / "run_example.cfg", TRAIN_KEYS if via_set else {**TRAIN_KEYS, **keys})
    argv = ["train", "--corpus", str(root / "corpus"), "--config", config,
            "--out", str(out / "m.vfnc")]
    if via_set:
        argv += [f"--set={k}={v}" for k, v in keys.items()]
    paths = {"--checkpoint-dir": out / "ck", "--resume": root / "ck" / "checkpoint_00000001.vfnc"}
    run(argv + flags(drawn, TRAIN_FLAGS, paths), out, "train")


@CONTRACT
@given(draws(ENCODE_FLAGS))
def test_encode_keeps_the_contract(toy, drawn):
    root, n = toy
    out = root / f"out{next(n)}"
    argv = ["encode", "--model", str(root / "m.vfnc"), "--out", str(out),
            str(root / "corpus" / "00000.rawvid"), str(root / "corpus" / "00001.rawvid")]
    run(argv + flags(drawn, ENCODE_FLAGS, {}), out, "encode")


@CONTRACT
@given(st.one_of(st.tuples(st.just("decode"), draws(DECODE_FLAGS)),
                 st.tuples(st.just("summary"), draws(SUMMARY_FLAGS))))
def test_decode_and_summary_keep_the_contract(toy, draw):
    root, n = toy
    out = root / f"out{next(n)}"
    command, drawn = draw
    argv = [command, "--model", str(root / "m.vfnc"), "--out", str(out),
            str(root / "enc" / "00000.venc"), str(root / "enc" / "00001.venc")]
    run(argv + flags(drawn, DECODE_FLAGS, {"--originals": root / "corpus"}), out, command)


@CONTRACT
@given(draws(EVAL_FLAGS, HEAD_CONFIG_KEYS))
@example({"epochs": "3"})
def test_eval_keeps_the_contract(toy, drawn):
    """Drawn head keys go into the head config ahead of `HEAD_KEYS`; a key
    the head config does not take, as `epochs`, is refused by its line."""
    root, n = toy
    out = root / f"out{next(n)}"
    keys = {k: v for k, v in drawn.items() if k not in EVAL_FLAGS}
    head = key_file(root / "head_example.cfg",
                    {**keys, **{k: v for k, v in HEAD_KEYS.items() if k not in keys}})
    argv = ["eval", "--encodings", str(root / "enc"), "--corpus", str(root / "corpus"),
            "--head-config", head, "--out", str(out)]
    if "--task" not in drawn:
        argv += ["--task", "regression"]
    lines = run(argv + flags(drawn, EVAL_FLAGS, {}), out, "eval")
    if "epochs" in keys:
        assert lines == [f"error: {head}:1: unknown key 'epochs'"]


@settings(CONTRACT, max_examples=10)
@given(ints(-2, 1))
def test_gradcheck_keeps_the_contract(toy, trials):
    root, n = toy
    run(["gradcheck", f"--trials={trials}"], root / f"out{next(n)}", "gradcheck")
