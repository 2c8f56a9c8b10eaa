"""Plain key=value run configuration.

One diffable text block covers every model and training field. Unknown
keys are errors, parsing is order-independent, and the same text embeds in
checkpoints so a saved model is self-describing.
"""

from __future__ import annotations

from .model import ModelConfig
from .training import TrainConfig


class ConfigError(ValueError):
    pass


_REQUIRED = object()

# key -> (type, default, target dataclass field)
MODEL_KEYS: dict[str, tuple[type, object, str]] = {
    "vocab_size": (int, 256, "vocab_size"),
    "context_length": (int, _REQUIRED, "context_len"),
    "patch_size": (int, _REQUIRED, "patch_size"),
    "global_dim": (int, _REQUIRED, "global_dim"),
    "local_dim": (int, _REQUIRED, "local_dim"),
    "global_layers": (int, _REQUIRED, "global_layers"),
    "local_layers": (int, _REQUIRED, "local_layers"),
    "global_heads": (int, 0, "global_heads"),
    "local_heads": (int, 0, "local_heads"),
    "cross_patch_window": (int, 0, "cross_patch_window"),
    "conv_encoder": (bool, False, "conv_encoder"),
    "no_local": (bool, False, "no_local"),
    "no_global": (bool, False, "no_global"),
    "dropout": (float, 0.1, "dropout"),
}

TRAIN_KEYS: dict[str, tuple[type, object, str]] = {
    "peak_lr": (float, _REQUIRED, "peak_lr"),
    "total_updates": (int, _REQUIRED, "total_updates"),
    "batch_size": (int, _REQUIRED, "batch_size"),
    "warmup_updates": (int, 500, "warmup_updates"),
    "end_lr": (float, 0.0, "end_lr"),
    "clip_norm": (float, 1.0, "clip_norm"),
    "weight_decay": (float, 0.1, "weight_decay"),
    "seed": (int, 0, "seed"),
    "adam_beta1": (float, 0.9, "adam_beta1"),
    "adam_beta2": (float, 0.98, "adam_beta2"),
    "adam_eps": (float, 1e-8, "adam_eps"),
    "window_stride": (int, 0, None),  # 0 = context_length; data prep only
}


def _parse_value(key: str, typ: type, raw: str):
    raw = raw.strip()
    if typ is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"key {key!r}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected {typ.__name__}, got {raw!r}") from None


def parse_config_text(text: str) -> dict[str, object]:
    """Parse key=value lines (#-comments and blanks allowed) into a dict
    of typed values, applying defaults and rejecting unknown keys."""
    known = {**MODEL_KEYS, **TRAIN_KEYS}
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, known[key][0], raw)
    missing = [k for k, (_, default, _) in known.items()
               if default is _REQUIRED and k not in values]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}")
    for k, (_, default, _) in known.items():
        if k not in values:
            values[k] = default
    return values


def configs_from_values(values: dict[str, object]) -> tuple[ModelConfig, TrainConfig, int]:
    """Build the two configs plus the window stride (0 = context length).

    The single dropout key drives both the model and the training rate.
    """
    try:
        model_cfg = ModelConfig(**{field: values[key]
                                   for key, (_, _, field) in MODEL_KEYS.items()})
        train_cfg = TrainConfig(dropout=values["dropout"],
                                **{field: values[key]
                                   for key, (_, _, field) in TRAIN_KEYS.items()
                                   if field is not None})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    stride = int(values["window_stride"])
    if stride < 0:
        raise ConfigError("window_stride must be >= 0")
    return model_cfg, train_cfg, stride


def load_config(path) -> tuple[ModelConfig, TrainConfig, int]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    return configs_from_values(parse_config_text(text))


def config_to_text(model_cfg: ModelConfig, train_cfg: TrainConfig,
                   window_stride: int = 0) -> str:
    """Serialize both configs to the key=value form, in registry order.

    The shared dropout key takes the training-time rate (the value that
    governs when the two configs were built apart and disagree).
    """
    lines = []
    for key, (typ, _, field) in MODEL_KEYS.items():
        val = train_cfg.dropout if key == "dropout" else getattr(model_cfg, field)
        lines.append(f"{key}={_format(typ, val)}")
    for key, (typ, _, field) in TRAIN_KEYS.items():
        if field is None:
            lines.append(f"{key}={window_stride}")
        else:
            lines.append(f"{key}={_format(typ, getattr(train_cfg, field))}")
    return "\n".join(lines) + "\n"


def _format(typ: type, val) -> str:
    if typ is bool:
        return "true" if val else "false"
    if typ is float:
        return repr(float(val))
    return str(val)
