"""Plain key=value run configuration.

One diffable text block covers every model and training field. Unknown
keys are errors, parsing is order-independent, and the same text embeds in
checkpoints so a saved model is self-describing. The keys are the fields
of `ModelConfig`, then `TrainConfig`, with their types and defaults; a field
with no default is a required key. Only `context_len` is renamed (key
`context_length`), and one `dropout` key feeds both configs.
"""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import get_type_hints

from .model import ModelConfig
from .training import TrainConfig


class ConfigError(ValueError):
    pass


_KEY_BY_FIELD = {"context_len": "context_length"}


def _keys(cls, skip: tuple[str, ...] = ()) -> dict[str, tuple[type, object, str]]:
    """key -> (type, default or MISSING, field) for each field of `cls`."""
    hints = get_type_hints(cls)
    return {_KEY_BY_FIELD.get(f.name, f.name): (hints[f.name], f.default, f.name)
            for f in fields(cls) if f.name not in skip}


MODEL_KEYS = _keys(ModelConfig)
TRAIN_KEYS = _keys(TrainConfig, skip=("dropout",))


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


def parse_config(data: bytes) -> tuple[ModelConfig, TrainConfig]:
    """Parse UTF-8 key=value lines (#-comments and blanks allowed) into the
    two configs, applying defaults and rejecting unknown keys.

    The single dropout key drives both the model and the training rate.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from None
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
               if default is MISSING and k not in values]
    if missing:
        raise ConfigError(f"missing required key(s): {', '.join(missing)}")
    values = {k: values.get(k, default) for k, (_, default, _) in known.items()}
    try:
        model_cfg = ModelConfig(**{field: values[key]
                                   for key, (_, _, field) in MODEL_KEYS.items()})
        train_cfg = TrainConfig(dropout=values["dropout"],
                                **{field: values[key]
                                   for key, (_, _, field) in TRAIN_KEYS.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if train_cfg.window_stride > model_cfg.context_len:
        raise ConfigError(f"window_stride must be in [0, context_length={model_cfg.context_len}]")
    return model_cfg, train_cfg


def load_config(path) -> tuple[ModelConfig, TrainConfig]:
    with open(path, "rb") as fh:
        return parse_config(fh.read())


def config_to_text(model_cfg: ModelConfig, train_cfg: TrainConfig) -> str:
    """Serialize both configs to the key=value form, in field order.

    The shared dropout key takes the training-time rate (the value that
    governs when the two configs were built apart and disagree).
    """
    lines = []
    for key, (typ, _, field) in {**MODEL_KEYS, **TRAIN_KEYS}.items():
        owner = train_cfg if key in TRAIN_KEYS or key == "dropout" else model_cfg
        lines.append(f"{key}={_format(typ, getattr(owner, field))}")
    return "\n".join(lines) + "\n"


def _format(typ: type, val) -> str:
    if typ is bool:
        return "true" if val else "false"
    if typ is float:
        return repr(float(val))
    return str(val)
