"""Loader round trips and synthetic-corpus properties."""

import struct

import numpy as np
import pytest

from vfuncta.data import (
    SynthSpec,
    VideoTensor,
    _resize_frame,
    _trajectory_points,
    gen_synthetic,
    load_video,
    save_video,
    write_pgm,
)
from vfuncta.errors import ContractError, DataError


def test_video_tensor_rejects_out_of_range():
    with pytest.raises(ContractError):
        VideoTensor(np.full((1, 2, 2), 1.5))
    with pytest.raises(ContractError):
        VideoTensor(np.full((1, 2, 2), np.nan))


@pytest.mark.parametrize("height, width", [(5, 5), (4, 7)])
def test_resize_to_the_same_size_is_bit_equal(height, width):
    frame = np.random.default_rng(0).random((height, width)).astype(np.float32)
    assert _resize_frame(frame, height, width).tobytes() == frame.tobytes()


def test_rawvid_single_voxel(tmp_path):
    path = tmp_path / "one.rawvid"
    save_video(path, VideoTensor(np.full((1, 1, 1), 0.5)))
    assert path.read_bytes() == b"VRAW" + struct.pack("<IIIf", 1, 1, 1, 0.5)
    assert np.array_equal(load_video(path).values, [[[0.5]]])


def test_failed_rawvid_write_leaves_no_temporary_file(tmp_path):
    path = tmp_path / "clip.rawvid"
    path.mkdir()  # the final rename onto a directory fails
    with pytest.raises(OSError):
        save_video(path, VideoTensor(np.full((1, 1, 1), 0.5)))
    assert [p.name for p in tmp_path.iterdir()] == ["clip.rawvid"]


def test_rawvid_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    video = VideoTensor(rng.random((4, 6, 5), dtype=np.float32))
    path = tmp_path / "v.rawvid"
    save_video(path, video)
    again = load_video(path)
    assert np.array_equal(video.values, again.values)
    save_video(tmp_path / "v2.rawvid", again)
    assert (tmp_path / "v.rawvid").read_bytes() == (tmp_path / "v2.rawvid").read_bytes()


def test_rawvid_bad_magic(tmp_path):
    path = tmp_path / "bad.rawvid"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(DataError, match="magic"):
        load_video(path)


def test_rawvid_payload_size_mismatch(tmp_path):
    path = tmp_path / "short.rawvid"
    import struct
    path.write_bytes(b"VRAW" + struct.pack("<III", 2, 2, 2) + bytes(4))
    with pytest.raises(DataError, match="payload"):
        load_video(path)


def test_pgm_full_white_loads_as_ones(tmp_path):
    d = tmp_path / "clip"
    d.mkdir()
    write_pgm(d / "f0.pgm", np.ones((3, 4)))
    video = load_video(d)
    assert video.dims == (1, 3, 4)
    assert np.array_equal(video.values, np.ones((1, 3, 4), dtype=np.float32))


def test_pgm_frames_load_in_lexicographic_order(tmp_path):
    d = tmp_path / "clip"
    d.mkdir()
    write_pgm(d / "b.pgm", np.full((2, 2), 0.0))
    write_pgm(d / "a.pgm", np.full((2, 2), 1.0))
    video = load_video(d)
    assert video.values[0, 0, 0] == 1.0 and video.values[1, 0, 0] == 0.0


def test_pgm_inconsistent_sizes(tmp_path):
    d = tmp_path / "clip"
    d.mkdir()
    write_pgm(d / "a.pgm", np.zeros((2, 2)))
    write_pgm(d / "b.pgm", np.zeros((3, 2)))
    with pytest.raises(DataError, match="differs"):
        load_video(d)


@pytest.mark.parametrize("blob, size", [
    pytest.param(b"P5\n2 2\n255", 0, id="no-byte-after-maxval"),
    pytest.param(b"P5\n2 2\n255\n" + bytes(4) + b"garbage", 11, id="trailing-bytes"),
    pytest.param(b"P5\n2 2\n255\n" + bytes(4) + b"P5\n2 2\n255\n" + bytes(4), 19,
                 id="a-second-image"),
])
def test_pgm_payload_must_be_exactly_one_image(tmp_path, blob, size):
    d = tmp_path / "clip"
    d.mkdir()
    (d / "f0.pgm").write_bytes(blob)
    with pytest.raises(DataError, match=f"f0.pgm: payload is {size} bytes, expected 4"):
        load_video(d)


def test_empty_directory(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    with pytest.raises(DataError, match="no .pgm"):
        load_video(d)


def test_synthetic_deterministic():
    spec = SynthSpec(background_seed=4, speed=2.0, trajectory="circle")
    a, la = gen_synthetic(spec, np.random.default_rng(9))
    b, lb = gen_synthetic(spec, np.random.default_rng(9))
    assert np.array_equal(a.values, b.values)
    assert la == lb


def test_zero_amplitude_is_time_constant():
    for family in ("blob", "sweep", "speckle"):
        spec = SynthSpec(family=family, amplitude=0.0, background_seed=1)
        video, _ = gen_synthetic(spec, np.random.default_rng(0))
        assert np.array_equal(video.values, np.broadcast_to(video.values[0], video.dims))


def test_labels_follow_spec():
    spec = SynthSpec(speed=2.25, trajectory="circle")
    _, labels = gen_synthetic(spec, np.random.default_rng(1))
    assert labels.speed == 2.25
    assert labels.trajectory_class == 1


def test_sweep_band_follows_the_trajectory():
    videos, centers = {}, {}
    for trajectory in ("line", "circle"):
        spec = SynthSpec(family="sweep", frames=6, background_seed=3, speed=2.0,
                         trajectory=trajectory)
        videos[trajectory], _ = gen_synthetic(spec, np.random.default_rng(8))
        centers[trajectory] = _trajectory_points(spec, np.random.default_rng(8))
    assert not np.array_equal(videos["line"].values, videos["circle"].values)
    background, _ = gen_synthetic(SynthSpec(family="sweep", frames=6, background_seed=3,
                                            amplitude=0.0), np.random.default_rng(8))
    for trajectory, video in videos.items():
        band = (video.values - background.values).astype(np.float64)
        # a vertical band: every row of a frame is the same, peaking at the path's x
        assert np.allclose(band, band[:, :1, :], atol=1e-6)
        peaks = band[:, 0, :].argmax(axis=1)
        assert np.all(np.abs(peaks - centers[trajectory][:, 0]) <= 0.5), trajectory


def test_temporal_variance_concentrates_on_trajectory():
    spec = SynthSpec(frames=10, height=32, width=32, background_seed=7,
                     speed=2.0, amplitude=0.4, trajectory="line")
    video, _ = gen_synthetic(spec, np.random.default_rng(21))
    centers = _trajectory_points(spec, np.random.default_rng(21))

    var_map = video.values.astype(np.float64).var(axis=0)
    yy, xx = np.mgrid[0 : spec.height, 0 : spec.width]
    dist = np.full((spec.height, spec.width), np.inf)
    for cx, cy in centers:
        dist = np.minimum(dist, np.hypot(xx - cx, yy - cy))
    on_path = dist <= 1.5 * spec.blob_sigma
    off_path = dist >= 5.0 * spec.blob_sigma
    assert on_path.any() and off_path.any()
    assert var_map[on_path].mean() > 5.0 * var_map[off_path].mean()


def test_speckle_texture_changes_background():
    plain, _ = gen_synthetic(SynthSpec(family="blob", background_seed=2),
                             np.random.default_rng(5))
    textured, _ = gen_synthetic(SynthSpec(family="speckle", background_seed=2),
                                np.random.default_rng(5))
    assert not np.array_equal(plain.values, textured.values)
