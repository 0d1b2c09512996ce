"""8-bit post-training quantization -- the attack surface of BFA.

Weights of every Conv2d/Linear layer are quantized to two's-complement
int8 with a per-layer symmetric scale (``max|W| / 127``), exactly the
representation the paper attacks: flipping stored bit ``b`` of a weight
XORs its int8 image with ``1 << b``, so an MSB (sign) flip moves the
weight by the full dynamic range.

:class:`QuantizedModel` owns the int8 arrays, keeps the float model's
weights equal to their dequantized values, and exposes the bit-level
mutation API that the DRAM weight store drives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Model

__all__ = ["QuantizedTensor", "QuantizedModel"]

QUANT_BITS = 8


@dataclass
class QuantizedTensor:
    """One layer's quantized weight: int8 payload + scale."""

    name: str
    q: np.ndarray  # int8, same shape as the float weight
    scale: float

    @property
    def bits(self) -> int:
        return self.q.size * QUANT_BITS

    def dequantize(self) -> np.ndarray:
        return (self.q.astype(np.float32)) * self.scale

    def flip_bit(self, flat_index: int, bit: int) -> None:
        """XOR one stored bit (two's-complement int8 semantics)."""
        if not 0 <= bit < QUANT_BITS:
            raise ValueError(f"bit {bit} out of range")
        flat = self.q.reshape(-1).view(np.uint8)  # shares memory with q
        flat[flat_index] ^= np.uint8(1 << bit)

    def to_bytes(self) -> np.ndarray:
        """Byte image as stored in DRAM (uint8 view of the int8 array)."""
        return self.q.reshape(-1).view(np.uint8).copy()

    def from_bytes(self, data: np.ndarray) -> None:
        """Overwrite the payload from a DRAM byte image."""
        data = np.asarray(data, dtype=np.uint8)
        if data.size != self.q.size:
            raise ValueError("byte image size mismatch")
        self.q.reshape(-1)[:] = data.view(np.int8)


class QuantizedModel:
    """A float model driven by int8 weight storage."""

    def __init__(self, model: Model, bits: int = QUANT_BITS):
        if bits != QUANT_BITS:
            raise ValueError("only 8-bit quantization is implemented")
        self.model = model
        self.tensors: dict[str, QuantizedTensor] = {}
        self._layer_cache: dict = {}
        self._quantize()
        self.load_into_model()

    # ------------------------------------------------------------------
    # Quantization
    # ------------------------------------------------------------------
    def _quantize(self) -> None:
        for path, layer in self.model.weight_layers().items():
            weight = layer.weight.value
            max_abs = float(np.max(np.abs(weight)))
            scale = max_abs / 127.0 if max_abs > 0 else 1.0
            q = np.clip(np.round(weight / scale), -128, 127).astype(np.int8)
            self.tensors[path] = QuantizedTensor(name=path, q=q, scale=scale)

    def load_into_model(self) -> None:
        """Sync the float model's weights to the dequantized payloads."""
        layers = self.model.weight_layers()
        for path, tensor in self.tensors.items():
            layers[path].weight.value[...] = tensor.dequantize()

    def sync_layer(self, name: str) -> None:
        """Sync one layer's float weight to its dequantized payload.

        When only ``name``'s payload changed, this is value-identical
        to :meth:`load_into_model` (dequantization is deterministic, so
        rewriting an unchanged tensor writes the same bytes) at a
        fraction of the cost -- the candidate-evaluation hot path of
        the attack-search engine flips one bit thousands of times."""
        layer = self._layer_cache.get(name)
        if layer is None:
            self._layer_cache = self.model.weight_layers()
            layer = self._layer_cache[name]
        layer.weight.value[...] = self.tensors[name].dequantize()

    # ------------------------------------------------------------------
    # Bit-level access
    # ------------------------------------------------------------------
    def flip_bit(self, name: str, flat_index: int, bit: int) -> None:
        """Flip one weight bit and propagate into the float model."""
        self.tensors[name].flip_bit(flat_index, bit)
        self.load_into_model()

    # ------------------------------------------------------------------
    # Snapshots (for repeated attacks from a clean model)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: tensor.q.copy() for name, tensor in self.tensors.items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        for name, payload in snapshot.items():
            self.tensors[name].q[...] = payload
        self.load_into_model()
