import json
import os

import pytest

from pointpair.errors import file_stream, write_json


class TestFileStream:
    @pytest.mark.parametrize("mode, data", [("wb", b"partial"), ("w", "partial")])
    def test_interrupted_write_leaves_no_file(self, tmp_path, mode, data):
        with pytest.raises(KeyboardInterrupt):
            with file_stream(str(tmp_path / "out"), mode) as fh:
                fh.write(data)
                raise KeyboardInterrupt
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_the_old_target(self, tmp_path):
        target = tmp_path / "out"
        target.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with file_stream(str(target), "wb") as fh:
                fh.write(b"new")
                raise RuntimeError("writer failed")
        assert os.listdir(tmp_path) == ["out"]
        assert target.read_bytes() == b"old"

    def test_completed_write_replaces_the_target(self, tmp_path):
        target = tmp_path / "out"
        target.write_bytes(b"old")
        with file_stream(str(target), "w") as fh:
            fh.write("new\n")
        assert os.listdir(tmp_path) == ["out"]
        assert target.read_bytes() == b"new\n"

    def test_write_json_layout(self, tmp_path):
        write_json(str(tmp_path / "s.json"), {"b": 1, "a": [2.5]})
        text = (tmp_path / "s.json").read_text(encoding="ascii")
        assert text == json.dumps({"a": [2.5], "b": 1}, indent=2) + "\n"
