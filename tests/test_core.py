import copy
import dataclasses
import math
import pickle

import pytest

from swipesim.core import (
    BitrateLadder,
    ChunkRef,
    PlayerBuffer,
    SessionConfig,
    VideoSpec,
    chunk_kbit,
)

LADDER = BitrateLadder((750, 1200, 1850))


def make_video(chunk_count=10, ladder=LADDER):
    return VideoSpec("v0", "cat", chunk_count, 1.0, ladder)


class TestBitrateLadder:
    def test_valid(self):
        assert LADDER.lowest == 750
        assert 1200 in LADDER
        assert 1000 not in LADDER

    @pytest.mark.parametrize("levels", [(), (750, 750), (1200, 750), (0, 750), (-1,)])
    def test_invalid(self, levels):
        with pytest.raises(ValueError):
            BitrateLadder(levels)

    def test_match(self):
        assert LADDER.match(1300) == 1200
        assert LADDER.match(600) == 750
        assert LADDER.match(5000) == 1850
        assert LADDER.match(750) == 750

    def test_steps(self):
        assert LADDER.step_down(1200) == 750
        assert LADDER.step_down(750) == 750
        assert LADDER.step_up(1200) == 1850
        assert LADDER.step_up(1850) == 1850


class TestVideoSpec:
    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError):
            VideoSpec("v", "cat", 0, 1.0, LADDER)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            VideoSpec("v", "cat", 1, 0.0, LADDER)

    def test_chunk_size_integral(self):
        v = make_video()
        assert chunk_kbit(750, v.chunk_duration_s) == 750
        assert isinstance(chunk_kbit(750, v.chunk_duration_s), int)


class TestChunkRef:
    def test_create_valid(self):
        ref = ChunkRef.create(0, 1, 750, make_video())
        assert ref.chunk_index == 1

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            ChunkRef.create(0, 11, 750, make_video(chunk_count=10))
        with pytest.raises(ValueError):
            ChunkRef.create(0, 0, 750, make_video())

    def test_rejects_off_ladder_bitrate(self):
        with pytest.raises(ValueError):
            ChunkRef.create(0, 1, 1000, make_video())

    def test_rejects_negative_video(self):
        with pytest.raises(ValueError):
            ChunkRef.create(-1, 1, 750, make_video())

    def test_frozen_and_slotted(self):
        ref = ChunkRef(0, 1, 750)
        # a field and a name that is no field alike
        for name in ("chunk_index", "bogus"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ref, name, 2)
        assert not hasattr(ref, "__dict__")

    def test_copy_and_pickle_by_value(self):
        ref = ChunkRef(3, 2, 1200)
        twins = [copy.copy(ref), copy.deepcopy(ref)]
        twins += [pickle.loads(pickle.dumps(ref, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert twin == ref and type(twin) is ChunkRef


class TestPlayerBuffer:
    def test_prefix_progression(self):
        buf = PlayerBuffer(0, make_video(chunk_count=3))
        assert buf.bitrates == []
        buf.record_download(1, 750)
        buf.record_download(2, 1200)
        assert buf.bitrates == [750, 1200]
        buf.record_download(3, 750)
        assert buf.bitrates == [750, 1200, 750]

    def test_rejects_out_of_order(self):
        buf = PlayerBuffer(0, make_video())
        with pytest.raises(ValueError):
            buf.record_download(2, 750)

    def test_rejects_beyond_end(self):
        buf = PlayerBuffer(0, make_video(chunk_count=1))
        buf.record_download(1, 750)
        with pytest.raises(ValueError):
            buf.record_download(2, 750)

    def test_rejects_off_ladder(self):
        buf = PlayerBuffer(0, make_video())
        with pytest.raises(ValueError):
            buf.record_download(1, 999)


class TestSessionConfig:
    def test_defaults(self):
        cfg = SessionConfig()
        assert (cfg.w1, cfg.w2, cfg.w3, cfg.w4) == (1.0, 1.0, 1.85, 0.5)
        assert cfg.n_pred == 5
        assert cfg.b0_startup_chunks == 1

    @pytest.mark.parametrize("kwargs", [
        {"w1": -0.1},
        {"gamma1": 0.8, "gamma2": 0.5},
        {"gamma1": 0.0},
        {"gamma2": 1.1},
        {"p_th_early": 0.0},
        {"p_th_long": 1.0},
        {"b0_startup_chunks": 0},
        {"n_pred": 1},
        {"t_sleep_s": 0.0},
        {"quality_metric": "vmaf"},
        {"w4": math.nan},
        {"t_sleep_s": math.inf},
        {"b0_startup_chunks": 1.5},
        {"b0_startup_chunks": True},
        {"n_pred": True},
        {"window_chunks": True},
        {"window_chunks": False},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SessionConfig(**kwargs)

    @pytest.mark.parametrize("name", [
        "w1", "w2", "w3", "w4", "alpha1", "alpha2", "gamma1", "gamma2",
        "p_th_early", "p_th_long", "t_sleep_s"])
    def test_non_number_names_its_field(self, name):
        # as a config file can give it: a string, a list or a null
        for value, shown in (("a", '"a"'), ([1], "[1]"), (None, "null")):
            with pytest.raises(ValueError) as err:
                SessionConfig(**{name: value})
            assert str(err.value) == (
                f"field {name!r}: expected a number, got {shown}")
