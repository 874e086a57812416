"""Malformed inputs: one table per file kind, each row forged from a valid file.

The kinds are dataset JSONL (read by ``build-vocab``, ``train``, ``caption``
and ``evaluate``), MLCAP1 checkpoints (read by ``caption``) and candidate
TSVs (read by ``evaluate``). A row is a ``Case``: its id, ``forge`` (the
valid file's bytes to the malformed file's bytes), the ``message`` the
refusal prints right after the file's path, and ``accepted_by``, the
readers that load the file all the same. A reader is a command, or
``load_checkpoint`` for a checkpoint whose check lives in ``caption``;
``caption`` reads datasets with ``load_dataset(require_captions=False)``.
``test_data.py``'s table test runs each row once through its loader, and
``test_cli.py``'s once through each command that reads its kind.
``write_jsonl`` writes a dataset file from JSON rows given in the test.
"""

import json
import math
import struct
from functools import partial
from typing import Callable, NamedTuple

import pytest

from mlcap.data import Checkpoint, corpus_from_records, save_checkpoint, save_dataset, synth_generate
from mlcap.model import Dims, param_shapes
from mlcap.vocab import build_vocab
from tinymodels import random_params

RECORDS = synth_generate(3, seed=0, languages=("en", "jp"))
VOCAB = build_vocab(corpus_from_records(RECORDS), min_count=1)
PARAMS = random_params(vocab=len(VOCAB), embed=3, hidden=4, feature=RECORDS[0].feature.size, seed=0)
RAW = "<raw>"  # a dataset edit's stand-in for JSON text that json.dumps cannot write


class Case(NamedTuple):
    id: str
    forge: Callable[[bytes], bytes]
    message: str
    accepted_by: tuple = ()


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """The valid dataset, checkpoint and candidates every row is forged from, by kind."""
    folder = tmp_path_factory.mktemp("valid")
    paths = {"dataset": folder / "valid.jsonl", "checkpoint": folder / "valid.ckpt", "candidates": folder / "valid.tsv"}
    save_dataset(RECORDS, paths["dataset"])
    save_checkpoint(paths["checkpoint"], Checkpoint(PARAMS, VOCAB, {"feature_l2norm": False}, 1))
    paths["candidates"].write_text("".join(f"{r.image_id}\t{' '.join(r.captions[0].tokens)}\n" for r in RECORDS))
    return paths


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def forge(case, valid, folder):
    """Write ``case``'s file, forged from the file ``valid``, into ``folder``; return its path."""
    path = folder / f"malformed{valid.suffix}"
    path.write_bytes(case.forge(valid.read_bytes()))
    return path


def table(*cases):
    by_id = {case.id: case for case in cases}
    assert len(by_id) == len(cases), "row ids repeat"
    return by_id


def line(index, text: bytes):
    """A forge: line ``index`` (from 0) becomes ``text``."""

    def edit(blob):
        lines = blob.splitlines(keepends=True)
        lines[index] = text + b"\n"
        return b"".join(lines)

    return edit


def row(index, edit, raw=""):
    """A dataset forge: line ``index`` (from 0) passes through ``edit`` as a
    JSON object; the string ``RAW`` in it is then spelled ``raw``."""

    def rewrite(blob):
        obj = json.loads(blob.splitlines()[index])
        edit(obj)
        return line(index, json.dumps(obj).replace(json.dumps(RAW), raw).encode())(blob)

    return rewrite


def setting(*keys, value):
    """An edit of a JSON object: ``obj[keys[0]]...[keys[-1]] = value``."""

    def edit(obj):
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value

    return edit


def replace_header(blob, text: bytes):
    (length,) = struct.unpack_from("<Q", blob, 6)
    return blob[:6] + struct.pack("<Q", len(text)) + text + blob[14 + length :]


def header(edit):
    """A checkpoint forge: the JSON header passes through ``edit``."""

    def rewrite(blob):
        (length,) = struct.unpack_from("<Q", blob, 6)
        obj = json.loads(blob[14 : 14 + length])
        edit(obj)
        return replace_header(blob, json.dumps(obj).encode("utf-8"))

    return rewrite


def rewrite_checkpoint_header(src, dst, edit):
    """Copy a checkpoint file, passing its JSON header through ``edit``."""
    dst.write_bytes(header(edit)(src.read_bytes()))


def claim_dims(header, **dims):
    """A checkpoint header edit: new dims and the array manifest they imply."""
    header["dims"].update(dims)
    shapes = param_shapes(Dims(**header["dims"]))
    header["arrays"] = [{"name": name, "shape": list(shape)} for name, shape in shapes.items()]


def break_surface_tokens(header):
    """A checkpoint header edit: every surface token ``t`` becomes ``t\\nX\\tt``,
    so each caption line written from it would split into three."""
    vocab = header["vocab"]
    first = 3 + len(vocab["languages"])
    vocab["tokens"][first:] = [f"{t}\nX\t{t}" for t in vocab["tokens"][first:]]


def rename_language(header, old, new):
    """A checkpoint header edit: language ``old`` becomes ``new``, start token included."""
    vocab = header["vocab"]
    vocab["languages"][vocab["languages"].index(old)] = new
    vocab["tokens"][vocab["tokens"].index(f"<{old}>")] = f"<{new}>"


_FIELDS = ": invalid header fields"
_SURROGATE = '"circ\\ud800le"'  # JSON text for a string holding a lone surrogate
V = len(VOCAB)
_SHAPES = list(param_shapes(PARAMS.dims).items())

DATASETS = table(
    Case("invalid-json", line(1, b"{not json"), ":2: invalid JSON (Expecting property name enclosed in double quotes)"),
    Case("not-an-object", line(1, b"[1.0, 2.0]"), ":2: each line must be a JSON object"),
    Case("id-missing", row(1, lambda obj: obj.pop("image_id")), ":2: missing or empty 'image_id'"),
    Case("id-empty", row(1, setting("image_id", value="")), ":2: missing or empty 'image_id'"),
    Case("duplicate-id", row(1, setting("image_id", value="synth-000000")), ":2: duplicate image_id 'synth-000000'"),
    Case("feature-width", row(1, setting("feature", value=[1.0])), ":2: image_id 'synth-000001' feature width 1 != 16"),
    *[
        Case(f"feature-{kind}", row(1, setting("feature", value=feature)), ":2: image_id 'synth-000001' needs a non-empty 'feature' list")
        for kind, feature in [("empty", []), ("not-a-list", 1.0)]
    ],
    Case("feature-1e999", row(1, setting("feature", 1, value=RAW), "1e999"), ":2: image_id 'synth-000001' feature must be finite"),
    # an integer past the float range
    Case("feature-10e400", row(1, setting("feature", 0, value=10**400)), ":2: image_id 'synth-000001' feature must be finite"),
    *[
        Case(f"feature-{kind}", row(1, setting("feature", 0, value=RAW), entry), ":2: image_id 'synth-000001' has a non-numeric feature")
        for kind, entry in [("string", '"1.5"'), ("bool", "true"), ("null", "null"), ("list", "[1.0]"), ("object", "{}")]
    ],
    # captions are written space-joined and read back split on whitespace
    *[
        Case(f"token-{kind}", row(1, setting("captions", 0, "tokens", value=["a", token, "cab"])),
             f":2: captions[0] tokens must be non-empty and hold no whitespace, got {token!r}")
        for kind, token in [("space", "New York"), ("empty", ""), ("line-feed", "cab\n"), ("ideographic-space", "\u3000")]
    ],
    # caption output is one 'image_id<TAB>tokens' line per image
    *[
        Case(f"id-{kind}", row(1, setting("image_id", value=image_id)), f":2: image_id {image_id!r} holds a tab or line break")
        for kind, image_id in [("tab", "synth-000001\tx"), ("line-feed", "synth-000001\nx"), ("carriage-return", "synth-000001\r")]
    ],
    # --langs splits its value at commas and strips whitespace
    *[
        Case(f"lang-{kind}", row(1, setting("captions", 1, "lang", value=lang)),
             f":2: captions[1] lang {lang!r} must be non-empty, without comma or whitespace")
        for kind, lang in [("empty", ""), ("comma", "jp,x"), ("space", "j p"), ("line-feed", "en\n")]
    ],
    *[
        Case(f"lang-{code}", row(1, setting("captions", 1, "lang", value=code)),
             f":2: captions[1] lang '{code}' is reserved: its start token <{code}> is a control token")
        for code in ("pad", "unk", "eos")
    ],
    # json.loads turns the escape into a lone surrogate, which no UTF-8 output can hold
    *[
        Case(f"surrogate-{kind}", row(1, setting(*keys, value=RAW), _SURROGATE), ":2: holds a lone surrogate '\\ud800', which is not text")
        for kind, keys in [("token", ("captions", 0, "tokens", 1)), ("id", ("image_id",)), ("lang", ("captions", 0, "lang"))]
    ],
    Case("no-captions", row(1, lambda obj: obj.pop("captions")), ":2: image_id 'synth-000001' has no captions", ("caption",)),
    Case("tokens-not-a-list", row(1, setting("captions", 0, "tokens", value="a cat")), ":2: captions[0] needs 'tokens' as a list of strings"),
    Case("captions-not-a-list", row(1, setting("captions", value="a cat")), ":2: captions must be a list"),
    Case("lang-not-a-string", row(1, setting("captions", 1, "lang", value=5)), ":2: captions[1] needs a string 'lang'"),
    Case("empty-file", lambda blob: b"", ": dataset is empty"),
    Case("utf16-bom", lambda blob: b"\xff\xfe" + blob, ":1: not UTF-8 text (byte 0xff)"),
    Case("latin1-crlf", lambda blob: blob.replace(b"synth-000001", b"caf\xe9").replace(b"\n", b"\r\n"), ":2: not UTF-8 text (byte 0xe9)"),
)

CHECKPOINTS = table(
    Case("bad-magic", lambda blob: b"NOTFMT" + blob[6:], ": not a checkpoint (bad magic)"),
    Case("cut-4", lambda blob: blob[:4], ": not a checkpoint (bad magic)"),
    Case("cut-10", lambda blob: blob[:10], ": truncated before header length"),
    Case("cut-20", lambda blob: blob[:20], ": truncated inside header"),
    Case("cut-half", lambda blob: blob[: len(blob) // 2], ": truncated inside array 'w_x'"),
    Case("cut-3-short", lambda blob: blob[:-3], ": truncated inside array 'b_out'"),
    *[
        Case(f"header-length-{length}", lambda blob, n=length: blob[:6] + struct.pack("<Q", n) + blob[14:], ": truncated inside header")
        for length in (2**63 - 1, 2**64 - 1)
    ],
    # a tiny file whose header is self-consistent but declares arrays far larger
    # than the file: refused before anything is allocated
    *[
        Case(f"huge-dims-{kind}", header(partial(claim_dims, embed=width, hidden=width, feature=width)), ": truncated inside array 'w_embed'")
        for kind, width in [("terabytes", 10**6), ("past-int64", 10**10), ("past-float", 10**400)]
    ],
    Case("huge-hidden", header(partial(claim_dims, hidden=10**400)), ": truncated inside array 'w_x'"),
    Case("trailing-bytes", lambda blob: blob + b"\x00\x01", ": 2 trailing bytes after arrays"),
    *[
        Case(f"version-{kind}", header(setting("version", value=version)), f": format version {version!r} unsupported (expected 1)")
        for kind, version in [("2", 2), ("true", True), ("float", 1.0)]
    ],
    Case("header-not-json", lambda blob: replace_header(blob, b"{not json"), ": unreadable header (Expecting property name enclosed"),
    Case("header-not-an-object", lambda blob: replace_header(blob, b"[1]"), ": header must be a JSON object"),
    Case("manifest-entry-without-name", header(lambda h: h["arrays"][2].pop("name")), ": invalid array manifest (KeyError('name'))"),
    Case("array-shape", header(setting("arrays", 6, "shape", value=[4, V + 1])),
         f": array manifest {_SHAPES[:6] + [('w_out', (4, V + 1))] + _SHAPES[7:]} does not match the arrays of {PARAMS.dims}: {_SHAPES}"),
    # b_gates[3]: w_out and b_out follow b_gates
    Case("non-finite-array", lambda blob, at=8 * (PARAMS.b_gates.size - 3 + PARAMS.w_out.size + PARAMS.b_out.size):
         blob[:-at] + struct.pack("<d", math.nan) + blob[-at + 8 :], ": array 'b_gates' holds non-finite values"),
    Case("vocab-short", header(lambda h: h["vocab"]["tokens"].__delitem__(slice(8, None))), f": header lists 8 vocabulary tokens but dims.vocab is {V}"),
    Case("vocab-long", header(lambda h: h["vocab"]["tokens"].append("zzz")), f": header lists {V + 1} vocabulary tokens but dims.vocab is {V}"),
    Case("token-not-a-string", header(setting("vocab", "tokens", -1, value=5)), f"{_FIELDS} (vocabulary tokens and languages must be strings)"),
    # captions are written from the vocabulary's tokens, one tab-separated line per image
    Case("token-line-break", header(break_surface_tokens), f"{_FIELDS} (tokens must be non-empty and hold no whitespace, got 'a\\nX\\ta')"),
    *[
        Case(f"token-{kind}", header(setting("vocab", "tokens", -1, value=token)),
             f"{_FIELDS} (tokens must be non-empty and hold no whitespace, got {token!r})")
        for kind, token in [("empty", ""), ("space", "New York")]
    ],
    *[
        Case(f"lang-{kind}", header(partial(rename_language, old="en", new=code)),
             f"{_FIELDS} (lang {code!r} must be non-empty, without comma or whitespace)")
        for kind, code in [("space", "e n"), ("comma", "e,n")]
    ],
    Case("token-lone-surrogate", header(setting("vocab", "tokens", -1, value="circ\ud800le")),
         f"{_FIELDS} ('utf-8' codec can't encode character '\\ud800' in position {len(''.join(VOCAB.id_to_token[:-1])) + 4}: surrogates not allowed)"),
    Case("dims-float", header(setting("dims", "hidden", value=4.0)), f"{_FIELDS} (dims.hidden must be a positive int, got 4.0)"),
    Case("dims-zero", header(setting("dims", "embed", value=0)), f"{_FIELDS} (dims.embed must be a positive int, got 0)"),
    Case("config-not-an-object", header(setting("config", value=["x"])), ": header config must be a JSON object, got list"),
    *[
        Case(f"epoch-{kind}", header(setting("epoch", value=epoch)), f": header epoch must be an integer >= 0, got {epoch!r}")
        for kind, epoch in [("float", 2.7), ("true", True), ("negative", -1), ("string", "3")]
    ],
    # a truthy non-bool would otherwise normalize every feature
    *[
        Case(f"l2norm-{kind}", header(setting("config", "feature_l2norm", value=value)),
             f": config.feature_l2norm must be true or false, got {value!r}", ("load_checkpoint",))
        for kind, value in [("string", "no"), ("int", 1), ("null", None)]
    ],
)

CANDIDATES = table(
    Case("utf16-bom", lambda blob: b"\xff\xfe" + blob, ":1: not UTF-8 text (byte 0xff)"),
    Case("latin1-crlf", lambda blob: blob.replace(b"a red", b"caf\xe9 red").replace(b"\n", b"\r\n"), ":2: not UTF-8 text (byte 0xe9)"),
    Case("no-tab", lambda blob: blob.replace(b"synth-000001\t", b"synth-000001 "), ":2: expected 'image_id<TAB>tokens'"),
    Case("duplicate", lambda blob: line(1, blob.splitlines()[0])(blob), ":2: duplicate candidate for 'synth-000000'"),
    Case("blank-lines", lambda blob: b"\n\n", ": no candidates found"),
    Case("unknown-image", lambda blob: blob.replace(b"synth-000000", b"no-such-image"), ":1: candidate 'no-such-image' is not in the reference data"),
)

TABLES = {"dataset": DATASETS, "checkpoint": CHECKPOINTS, "candidates": CANDIDATES}
