"""Keypoint ingestion and the six-joint upper-body ROI rule."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhmon import pose
from hhmon.errors import DataError
from hhmon.pose import (
    ARM_JOINTS,
    BBox,
    L_ELBOW,
    L_SHOULDER,
    L_WRIST,
    PoseFrame,
    R_ELBOW,
    R_SHOULDER,
    R_WRIST,
    RoiParams,
    upper_body_roi,
)


def person_with_arms(shoulders, elbows, wrists, confidence=1.0):
    """18x3 keypoint array with only the six arm joints confident."""
    kp = np.zeros((18, 3), dtype=np.float64)
    for j, (x, y) in zip((R_SHOULDER, L_SHOULDER), shoulders):
        kp[j] = (x, y, confidence)
    for j, (x, y) in zip((R_ELBOW, L_ELBOW), elbows):
        kp[j] = (x, y, confidence)
    for j, (x, y) in zip((R_WRIST, L_WRIST), wrists):
        kp[j] = (x, y, confidence)
    return kp


def test_roi_hand_computed_example():
    kp = person_with_arms([(10, 10), (30, 10)], [(8, 20), (32, 20)], [(6, 30), (34, 30)])
    box = upper_body_roi(kp, (640, 480), RoiParams(margin=0.25))
    # tight box x in [6, 34], y in [10, 30]; margins 7 and 5; x1 clamps -1 -> 0
    assert (box.x1, box.y1, box.x2, box.y2) == (0, 5, 41, 35)


def test_roi_coincident_joints_give_none():
    kp = person_with_arms([(5, 5)] * 2, [(5, 5)] * 2, [(5, 5)] * 2)
    assert upper_body_roi(kp, (64, 48), RoiParams(margin=0.25)) is None


def test_roi_min_joints_six_with_missing_wrists_gives_none():
    kp = person_with_arms([(10, 10), (30, 10)], [(8, 20), (32, 20)], [(6, 30), (34, 30)])
    kp[R_WRIST, 2] = 0.0
    kp[L_WRIST, 2] = 0.0
    assert upper_body_roi(kp, (640, 480), RoiParams(margin=0.25, min_joints=6)) is None
    assert upper_body_roi(kp, (640, 480), RoiParams(margin=0.25, min_joints=4)) is not None


def test_roi_low_confidence_joints_excluded_from_extent():
    kp = person_with_arms([(10, 10), (30, 10)], [(8, 20), (32, 20)], [(6, 30), (34, 30)])
    kp[L_WRIST] = (600, 400, 0.05)  # below min_confidence, must not stretch the box
    box = upper_body_roi(kp, (640, 480), RoiParams(margin=0.0, min_confidence=0.1))
    assert box.x2 <= 35 and box.y2 <= 31


def test_roi_ignores_non_arm_joints():
    kp = person_with_arms([(10, 10), (30, 10)], [(8, 20), (32, 20)], [(6, 30), (34, 30)])
    kp[pose.NOSE] = (500, 400, 1.0)
    kp[pose.L_ANKLE] = (1, 470, 1.0)
    box = upper_body_roi(kp, (640, 480), RoiParams(margin=0.25))
    assert (box.x1, box.y1, box.x2, box.y2) == (0, 5, 41, 35)


joint_xy = st.tuples(st.floats(50, 200), st.floats(50, 200))


@given(joints=st.lists(joint_xy, min_size=6, max_size=6),
       m_small=st.floats(0.0, 0.3), m_extra=st.floats(0.01, 0.3))
def test_roi_margin_monotonicity(joints, m_small, m_extra):
    kp = person_with_arms(joints[:2], joints[2:4], joints[4:])
    big_frame = (10_000, 10_000)  # no clamping, the containment must be geometric
    a = upper_body_roi(kp, big_frame, RoiParams(margin=m_small))
    b = upper_body_roi(kp, big_frame, RoiParams(margin=m_small + m_extra))
    if a is None:
        assert b is None
        return
    assert b.x1 <= a.x1 and b.y1 <= a.y1 and b.x2 >= a.x2 and b.y2 >= a.y2


inner_xy = st.tuples(st.floats(300, 500), st.floats(300, 500))


@given(joints=st.lists(inner_xy, min_size=6, max_size=6),
       dx=st.floats(-20, 20), dy=st.floats(-20, 20))
def test_roi_translation_equivariance(joints, dx, dy):
    # joints kept deep inside the frame so clamping never saturates the box
    kp = person_with_arms(joints[:2], joints[2:4], joints[4:])
    moved = kp.copy()
    moved[list(ARM_JOINTS), 0] += dx
    moved[list(ARM_JOINTS), 1] += dy
    big_frame = (100_000, 100_000)
    a = upper_body_roi(kp, big_frame, RoiParams(margin=0.25))
    b = upper_body_roi(moved, big_frame, RoiParams(margin=0.25))
    if a is None:
        assert b is None
        return
    np.testing.assert_allclose(
        [b.x1 - a.x1, b.y1 - a.y1, b.x2 - a.x2, b.y2 - a.y2],
        [dx, dy, dx, dy], atol=1e-9)


@given(joints=st.lists(joint_xy, min_size=6, max_size=6))
def test_roi_horizontal_mirror_symmetry(joints):
    width = 400
    kp = person_with_arms(joints[:2], joints[2:4], joints[4:])
    mirrored = kp.copy()
    mirrored[list(ARM_JOINTS), 0] = width - mirrored[list(ARM_JOINTS), 0]
    a = upper_body_roi(kp, (width, 100_000), RoiParams(margin=0.25))
    b = upper_body_roi(mirrored, (width, 100_000), RoiParams(margin=0.25))
    if a is None:
        assert b is None
        return
    np.testing.assert_allclose([b.x1, b.x2], [width - a.x2, width - a.x1], atol=1e-9)


@given(joints=st.lists(st.tuples(st.floats(-50, 700), st.floats(-50, 500)),
                       min_size=6, max_size=6),
       margin=st.floats(0, 1))
def test_roi_always_within_frame_with_positive_area(joints, margin):
    kp = person_with_arms(joints[:2], joints[2:4], joints[4:])
    box = upper_body_roi(kp, (640, 480), RoiParams(margin=margin))
    if box is not None:
        assert 0 <= box.x1 < box.x2 <= 640
        assert 0 <= box.y1 < box.y2 <= 480


def test_bbox_rejects_empty_box():
    with pytest.raises(DataError):
        BBox(10, 10, 10, 20)


def write_pose_line(fh, frame_index, hint, kp):
    cols = [str(frame_index), str(hint)]
    for x, y, c in kp:
        cols += [f"{x:.3f}", f"{y:.3f}", f"{c:.3f}"]
    fh.write(" ".join(cols) + "\n")


def test_load_poses_two_frames(tmp_path):
    kp = person_with_arms([(10, 10), (30, 10)], [(8, 20), (32, 20)], [(6, 30), (34, 30)])
    path = tmp_path / "kp.txt"
    with open(path, "w") as fh:
        write_pose_line(fh, 0, -1, kp)
        write_pose_line(fh, 1, -1, kp)
    frames = pose.load_poses(str(path))
    assert [p.frame_index for p in frames] == [0, 1]
    assert all(len(p.persons) == 1 for p in frames)
    np.testing.assert_allclose(frames[0].persons[0], kp, atol=1e-3)


def test_load_poses_sorts_out_of_order_frames(tmp_path):
    kp = person_with_arms([(10, 10), (30, 10)], [(8, 20), (32, 20)], [(6, 30), (34, 30)])
    path = tmp_path / "kp.txt"
    with open(path, "w") as fh:
        write_pose_line(fh, 5, -1, kp)
        write_pose_line(fh, 2, -1, kp)
    frames = pose.load_poses(str(path))
    assert [p.frame_index for p in frames] == [2, 5]


def test_load_poses_wrong_joint_count_errors(tmp_path):
    path = tmp_path / "kp.txt"
    cols = ["0", "-1"] + ["1.0"] * (17 * 3)
    path.write_text(" ".join(cols) + "\n")
    with pytest.raises(DataError):
        pose.load_poses(str(path))


def test_load_poses_malformed_line_names_line_number(tmp_path):
    kp = person_with_arms([(10, 10), (30, 10)], [(8, 20), (32, 20)], [(6, 30), (34, 30)])
    path = tmp_path / "kp.txt"
    with open(path, "w") as fh:
        write_pose_line(fh, 0, -1, kp)
        fh.write("garbage line\n")
    with pytest.raises(DataError, match=":2"):
        pose.load_poses(str(path))


def test_load_poses_parses_each_number_as_python_float(tmp_path):
    # a line's 51 numbers convert in one call, to float()'s values; the
    # [0, 1] confidence check still lets a NaN confidence through
    rng = np.random.default_rng(0)
    values = rng.uniform(-50, 50, (18, 3))
    values[:, 2] = rng.uniform(0, 1, 18)
    tokens = [repr(float(v)) for v in values.reshape(-1)]
    tokens[2], tokens[3], tokens[6], tokens[7] = "nan", "1_0.25", "-0.0", "1E1"
    path = tmp_path / "kp.txt"
    path.write_text("4 -1 " + " ".join(tokens) + "\n")
    (frame,) = pose.load_poses(str(path))
    want = np.array([float(t) for t in tokens]).reshape(18, 3)
    assert frame.persons[0].dtype == np.float64
    assert frame.persons[0].tobytes() == want.tobytes()
    for bad, message in (("1.5", "confidences must lie in"),
                         ("abc", "malformed value: could not convert")):
        tokens[5] = bad  # joint 1's confidence
        path.write_text("4 -1 " + " ".join(tokens) + "\n")
        with pytest.raises(DataError, match=f"kp.txt:1: {message}"):
            pose.load_poses(str(path))


def test_load_poses_names_the_first_faulty_line(tmp_path):
    # one confidence check covers the whole file, yet the first faulty line
    # is named, whether later lines are faulty in the same or another way
    kp = person_with_arms([(10, 10), (30, 10)], [(8, 20), (32, 20)], [(6, 30), (34, 30)])
    bad = kp.copy()
    bad[pose.L_WRIST, 2] = -0.5
    nan = kp.copy()
    nan[pose.NOSE, 2] = np.nan
    path = tmp_path / "kp.txt"
    for rows, extra, where in (((kp, nan, bad, bad), "", ":3: confidences"),
                               ((kp, bad), "garbage line\n", ":2: confidences"),
                               ((kp, nan), "garbage line\n", ":3: expected 18 joints")):
        with open(path, "w") as fh:
            for i, row in enumerate(rows):
                write_pose_line(fh, i, -1, row)
            fh.write(extra)
        with pytest.raises(DataError, match=where):
            pose.load_poses(str(path))


def test_poses_roundtrip(tmp_path):
    kp1 = person_with_arms([(10, 10), (30, 10)], [(8, 20), (32, 20)], [(6, 30), (34, 30)])
    kp2 = person_with_arms([(11, 12), (31, 12)], [(9, 22), (33, 22)], [(7, 32), (35, 32)])
    poses = [PoseFrame(0, [kp1, kp2], [0, 1]), PoseFrame(1, [kp1], [0])]
    path = str(tmp_path / "kp.txt")
    pose.save_poses(poses, path)
    back = pose.load_poses(path)
    assert len(back) == 2
    assert len(back[0].persons) == 2
    assert back[0].person_hints == [0, 1]
    for a, b in zip(back[0].persons, poses[0].persons):
        np.testing.assert_allclose(a, b, atol=1e-6)
