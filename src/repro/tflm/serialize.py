"""Model serialization: the ``.tflite`` flatbuffer stand-in.

CFU Playground deployments carry the model as constant data in the
binary image.  This module round-trips a quantized :class:`Model`
through a compact, self-describing binary container so models can be
stored beside a project, diffed, checksummed, and re-loaded without
rebuilding:

``REPRO_TFLM`` magic | version | JSON header (graph, quantization,
dtypes, shapes) | raw little-endian tensor payloads, 16-byte aligned.
"""

from __future__ import annotations

import io
import json

import numpy as np

from .model import Model, Operator
from .quantize import QuantParams
from .tensor import Tensor

MAGIC = b"REPRO_TFLM"
VERSION = 1
_ALIGN = 16

_DTYPES = {"int8": np.int8, "int16": np.int16, "int32": np.int32,
           "int64": np.int64, "uint8": np.uint8, "float32": np.float32}


def _encode_params(params):
    encoded = {}
    for key, value in params.items():
        if isinstance(value, np.ndarray):
            encoded[key] = {"__ndarray__": value.tolist(),
                            "dtype": str(value.dtype)}
        elif isinstance(value, tuple):
            encoded[key] = {"__tuple__": list(value)}
        elif isinstance(value, (np.integer,)):
            encoded[key] = int(value)
        elif isinstance(value, (np.floating,)):
            encoded[key] = float(value)
        else:
            encoded[key] = value
    return encoded


def _decode_params(params):
    decoded = {}
    for key, value in params.items():
        if isinstance(value, dict) and "__ndarray__" in value:
            decoded[key] = np.asarray(value["__ndarray__"],
                                      dtype=value["dtype"])
        elif isinstance(value, dict) and "__tuple__" in value:
            decoded[key] = tuple(value["__tuple__"])
        else:
            decoded[key] = value
    return decoded


def dump_model(model, stream=None):
    """Serialize a model; returns the bytes (also written to ``stream``)."""
    payloads = []
    offset = 0
    tensor_headers = {}
    for name, tensor in model.tensors.items():
        header = {
            "shape": list(tensor.shape),
            "dtype": np.dtype(tensor.dtype).name,
            "scale": tensor.quant.scale,
            "zero_point": tensor.quant.zero_point,
            "is_constant": tensor.is_constant,
        }
        if tensor.channel_scales is not None:
            header["channel_scales"] = [float(s) for s in tensor.channel_scales]
        if tensor.data is not None:
            blob = np.ascontiguousarray(tensor.data).tobytes()
            header["data_offset"] = offset
            header["data_bytes"] = len(blob)
            padding = (-len(blob)) % _ALIGN
            payloads.append(blob + b"\x00" * padding)
            offset += len(blob) + padding
        tensor_headers[name] = header

    header = {
        "name": model.name,
        "inputs": model.input_names,
        "outputs": model.output_names,
        "tensors": tensor_headers,
        "operators": [
            {"opcode": op.opcode, "name": op.name, "inputs": op.inputs,
             "outputs": op.outputs, "params": _encode_params(op.params)}
            for op in model.operators
        ],
    }
    header_blob = json.dumps(header, sort_keys=True).encode("utf-8")
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(VERSION.to_bytes(2, "little"))
    out.write(len(header_blob).to_bytes(4, "little"))
    out.write(header_blob)
    padding = (-out.tell()) % _ALIGN
    out.write(b"\x00" * padding)
    for blob in payloads:
        out.write(blob)
    data = out.getvalue()
    if stream is not None:
        stream.write(data)
    return data


def load_model(data):
    """Deserialize bytes produced by :func:`dump_model`."""
    if isinstance(data, (io.IOBase,)):
        data = data.read()
    if not data.startswith(MAGIC):
        raise ValueError("not a REPRO_TFLM container")
    cursor = len(MAGIC)
    version = int.from_bytes(data[cursor:cursor + 2], "little")
    if version != VERSION:
        raise ValueError(f"unsupported container version {version}")
    cursor += 2
    header_len = int.from_bytes(data[cursor:cursor + 4], "little")
    cursor += 4
    header = json.loads(data[cursor:cursor + header_len].decode("utf-8"))
    cursor += header_len
    cursor += (-cursor) % _ALIGN
    payload_base = cursor

    # The header lists tensors by name; rebuild the table with the ones
    # carrying data in payload order, the order dump_model wrote them,
    # so a loaded model dumps to the same bytes.
    tensors = {}
    for name, spec in sorted(header["tensors"].items(),
                             key=lambda item: item[1].get("data_offset", -1)):
        dtype = _DTYPES[spec["dtype"]]
        tensor = Tensor(
            name=name,
            shape=tuple(spec["shape"]),
            dtype=dtype,
            quant=QuantParams(spec["scale"], spec["zero_point"]),
            is_constant=spec["is_constant"],
        )
        if "channel_scales" in spec:
            tensor.channel_scales = np.asarray(spec["channel_scales"])
        if "data_offset" in spec:
            start = payload_base + spec["data_offset"]
            blob = data[start:start + spec["data_bytes"]]
            array = np.frombuffer(blob, dtype=dtype).reshape(spec["shape"])
            tensor.data = array.copy()
        tensors[name] = tensor

    operators = [
        Operator(opcode=spec["opcode"], name=spec["name"],
                 inputs=list(spec["inputs"]), outputs=list(spec["outputs"]),
                 params=_decode_params(spec["params"]))
        for spec in header["operators"]
    ]
    return Model(
        name=header["name"], tensors=tensors, operators=operators,
        input_names=header["inputs"], output_names=header["outputs"],
    )


def save_model(model, path):
    with open(path, "wb") as handle:
        dump_model(model, handle)
    return path


def load_model_file(path):
    with open(path, "rb") as handle:
        return load_model(handle.read())
