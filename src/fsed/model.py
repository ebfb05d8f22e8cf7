"""The lightweight extractor and the two detection branches.

Input windows are [T x mel] PCEN matrices treated as single-channel images.
The backbone reduces time x4 and mel x16; frame-rate outputs are recovered
by repeating each reduced-frame row (repeat-upsampling).
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from . import autodiff as ad
from .errors import FormatError, SelectionError, ShapeError
from .framing import WindowBatch
from .ingest import MEL_REDUCTION, RunConfig

TIME_REDUCTION = 4
# blocks 1-2 pool time and mel, blocks 3-4 pool mel only
_POOLS = ((2, 2), (2, 2), (1, 2), (1, 2))


class ConvBlock(ad.Module):
    """conv 3x3 (same pad) + BN + ReLU, then ceil-mode max pooling."""

    def __init__(self, cin: int, cout: int, pool, rng):
        scale = np.sqrt(2.0 / (cin * 9))
        self.w = ad.Tensor(rng.normal(0, scale, size=(cout, cin, 3, 3)),
                           requires_grad=True)
        self.b = ad.Tensor(np.zeros(cout), requires_grad=True)
        self.gamma = ad.Tensor(np.ones(cout), requires_grad=True)
        self.beta = ad.Tensor(np.zeros(cout), requires_grad=True)
        self.bn_state = ad.BatchNormState(cout)
        self.pool = pool

    def __call__(self, x, training: bool):
        x = ad.conv2d(x, self.w, self.b)
        x = ad.batchnorm2d(x, self.gamma, self.beta, self.bn_state, training)
        x = ad.relu(x)
        if self.pool != (1, 1):
            x = ad.maxpool2d(x, self.pool)
        return x


class Linear(ad.Module):
    def __init__(self, cin: int, cout: int, rng):
        scale = np.sqrt(2.0 / (cin + cout))
        self.w = ad.Tensor(rng.normal(0, scale, size=(cin, cout)),
                           requires_grad=True)
        self.b = ad.Tensor(np.zeros(cout), requires_grad=True)

    def __call__(self, x):
        return ad.linear(x, self.w, self.b)


# RunConfig fields that fix the weights' shapes; a checkpoint records them
ARCH_KEYS = ("channels", "embed_dim", "heads", "ffn_dim", "mel_bands", "win_frames")
# recorded as well, so the windows frame as in training; checkpoints written
# before they were recorded lack them and take the config's values
FRAMING_KEYS = ("shift_frames",)


def _checked(arrays: dict[str, np.ndarray], name: str, shape) -> np.ndarray:
    if name not in arrays:
        raise FormatError(f"checkpoint missing {name}")
    if arrays[name].shape != shape:
        raise FormatError(f"checkpoint shape mismatch for {name}")
    return arrays[name].astype(np.float64)


class ModelParams(ad.Module):
    """All learnable weights: backbone, transformer layer, three decoders."""

    renames = {"blocks": "block"}  # parameters block0.w, block1.w, ...

    def __init__(self, cfg: RunConfig, n_classes: int, seed: int = 0):
        self.cfg = cfg
        self.n_classes = n_classes
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x0DE1]))
        ch, emb = cfg.channels, cfg.embed_dim
        self.blocks = [ConvBlock(1 if i == 0 else ch, ch, _POOLS[i], rng)
                       for i in range(4)]
        mel_red = cfg.mel_bands // MEL_REDUCTION
        self.embed_proj = Linear(ch * mel_red, emb, rng)
        self.tf = ad.TransformerEncoderLayer(2 * emb, cfg.heads, cfg.ffn_dim, rng)
        self.decoder_sed = Linear(emb, n_classes, rng)
        self.decoder_sfbc = Linear(2 * emb, 2, rng)
        self.decoder_bin = Linear(emb, 2, rng)

    # -- parameter bookkeeping ------------------------------------------------

    def _bn_states(self) -> dict[str, ad.BatchNormState]:
        return {k.removesuffix(".bn_state"): st
                for k, st in self.named(ad.BatchNormState).items()}

    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays = {k: p.data for k, p in self.parameters().items()}
        for k, st in self._bn_states().items():
            arrays[f"{k}.running_mean"] = st.running_mean
            arrays[f"{k}.running_var"] = st.running_var
        return arrays

    def hyper(self) -> dict:
        return {**{k: getattr(self.cfg, k) for k in ARCH_KEYS + FRAMING_KEYS},
                "n_classes": self.n_classes}

    def save(self, path):
        ad.save_checkpoint(path, self.state_arrays(), self.hyper())

    def load_arrays(self, arrays: dict[str, np.ndarray]):
        for k, p in self.parameters().items():
            p.data = _checked(arrays, k, p.data.shape)
        for k, st in self._bn_states().items():
            st.running_mean = _checked(arrays, f"{k}.running_mean",
                                       st.running_mean.shape)
            st.running_var = _checked(arrays, f"{k}.running_var",
                                      st.running_var.shape)

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray], hyper: dict,
                    cfg: RunConfig, path) -> "ModelParams":
        """A model shaped by `hyper`, holding `arrays`; other settings from `cfg`."""
        try:
            arch = {k: int(hyper[k]) for k in ARCH_KEYS}
            arch.update({k: int(hyper[k]) for k in FRAMING_KEYS if k in hyper})
            n_classes = int(hyper["n_classes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: bad hyper-parameters: {exc!r}") from exc
        model = cls(dataclasses.replace(cfg, **arch), n_classes, seed=0)
        model.load_arrays(arrays)
        return model

    @classmethod
    def from_checkpoint(cls, path, cfg: RunConfig) -> "ModelParams":
        return cls.from_arrays(*ad.load_checkpoint(path), cfg, path)

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.copy() for k, v in self.state_arrays().items()}


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

# Blocks 0-1 are frozen and in eval mode throughout task adaptation, so their
# output for a window can be computed once and reused
PREFIX_BLOCKS = 2
PREFIX_PARAMS = tuple(f"block{i}." for i in range(PREFIX_BLOCKS))


def backbone_prefix(model: ModelParams, window: np.ndarray,
                    training: bool = False) -> ad.Tensor:
    """[T x mel] PCEN window -> blocks 0-1 output [C x T' x mel/4]."""
    t, mel = window.shape
    if mel != model.cfg.mel_bands:
        raise ShapeError(f"expected {model.cfg.mel_bands} mel bands, got {mel}")
    x = ad.Tensor(window.reshape(1, t, mel))
    for blk in model.blocks[:PREFIX_BLOCKS]:
        x = blk(x, training)
    return x


def backbone_suffix(model: ModelParams, x, training: bool = False) -> ad.Tensor:
    """Blocks 0-1 output (a Tensor or its array) -> [T' x embed] embedding."""
    if not isinstance(x, ad.Tensor):
        x = ad.Tensor(x)
    for blk in model.blocks[PREFIX_BLOCKS:]:
        x = blk(x, training)
    # [C x T' x mel'] -> [T' x C*mel']
    c, tr, mr = x.shape
    x = ad.reshape(ad.transpose(x, (1, 0, 2)), (tr, c * mr))
    return model.embed_proj(x)


def backbone_forward(model: ModelParams, window: np.ndarray,
                     training: bool = False) -> ad.Tensor:
    """[T x mel] PCEN window -> [T' x embed] embedding, T' = ceil(ceil(T/2)/2)."""
    return backbone_suffix(model, backbone_prefix(model, window, training),
                           training)


def prefix_fingerprint(model: ModelParams) -> bytes:
    """Digest of everything `backbone_prefix` reads from the model in eval
    mode: blocks 0-1 weights and BN running statistics."""
    h = hashlib.blake2b(digest_size=16)
    for name, arr in sorted(model.state_arrays().items()):
        if name.startswith(PREFIX_PARAMS):
            h.update(f"{name}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.digest()


def sed_forward(model: ModelParams, emb: ad.Tensor, target: int) -> ad.Tensor:
    """Per reduced frame class logits, upsampled to `target` frames."""
    return ad.repeat_upsample(model.decoder_sed(emb), TIME_REDUCTION, target)


def bin_forward(model: ModelParams, emb: ad.Tensor, target: int) -> ad.Tensor:
    """Binary (fine-tune stage) logits, upsampled to `target` frames."""
    return ad.repeat_upsample(model.decoder_bin(emb), TIME_REDUCTION, target)


def tc_vector(window: np.ndarray, labels: np.ndarray, target_class: int) -> np.ndarray:
    """Zero every frame whose label differs from the target class."""
    keep = (np.asarray(labels) == target_class).astype(np.float64)
    return window * keep[:, None]


def select_tc_window(windows: list[WindowBatch], target_class: int,
                     current_index: int) -> int:
    """Nearest preceding window containing the class; falls back to the
    current window when no earlier one has it."""
    for i in range(current_index - 1, -1, -1):
        if np.any(windows[i].sed_labels == target_class):
            return i
    if np.any(windows[current_index].sed_labels == target_class):
        return current_index
    raise SelectionError(f"class {target_class} absent from clip windows")


def reduce_pos_mask(labels: np.ndarray, target_class: int, t_reduced: int) -> np.ndarray:
    """Frame labels -> reduced-frame 0/1 mask (1 if any covered frame is POS)."""
    mask = np.zeros(t_reduced)
    pos = np.flatnonzero(np.asarray(labels) == target_class)
    mask[np.unique(pos // TIME_REDUCTION)] = 1.0
    return mask


def sfbc_tokens(model: ModelParams, sed_emb: ad.Tensor, pos_center,
                use_transformer: bool) -> ad.Tensor:
    """Tokens (center, sed_emb[t]): the repeated POS center stacked with the
    SED embedding, through the shared transformer layer when it is used."""
    center_rep = ad.repeat_rows(pos_center, sed_emb.shape[0])
    tokens = ad.concat([center_rep, sed_emb], axis=1)
    return model.tf(tokens) if use_transformer else tokens


def sfbc_decode(model: ModelParams, tokens, target: int) -> ad.Tensor:
    """SFBC decoder logits per token, upsampled to `target` frames."""
    return ad.repeat_upsample(model.decoder_sfbc(tokens), TIME_REDUCTION, target)


def sfbc_forward(model: ModelParams, sed_emb: ad.Tensor, tc_emb: ad.Tensor,
                 tc_pos_mask: np.ndarray, target: int,
                 use_transformer: bool = True) -> ad.Tensor:
    """SFBC branch: TC-window POS-center conditioning -> frame logits [target x 2].

    The TC embedding collapses to its masked-mean POS center; every token is
    (center, sed_emb[t]) through the shared transformer layer and the SFBC
    decoder, then repeat-upsampled.
    """
    if not np.any(tc_pos_mask):
        raise SelectionError("TC window has no POS frames; center undefined")
    center = ad.masked_mean_rows(tc_emb, tc_pos_mask)
    return sfbc_decode(model, sfbc_tokens(model, sed_emb, center, use_transformer),
                       target)
