import math

import numpy as np
import pytest

from coopercept.camera import (
    BBox2D,
    CameraGeometryError,
    CameraModel,
    associate_foot_to_parent,
    box_array,
    overlap_ratios,
    project,
    recover_ground_position,
    vanishing_point_z,
)

from oracles import brute_force_assignment, brute_force_foot_to_parent, overlap_ratio


def simple_camera(f=100.0, cx=320.0, cy=240.0):
    K = np.array([[f, 0.0, cx], [0.0, f, cy], [0.0, 0.0, 1.0]])
    return CameraModel.from_krt(K, np.eye(3), np.zeros(3), (640, 480))


def random_camera(rng):
    f = rng.uniform(300.0, 900.0)
    K = np.array([[f, 0.0, rng.uniform(200.0, 1000.0)],
                  [0.0, f * rng.uniform(0.9, 1.1), rng.uniform(150.0, 600.0)],
                  [0.0, 0.0, 1.0]])
    # random proper rotation via QR
    A = rng.normal(size=(3, 3))
    Q, R = np.linalg.qr(A)
    Q = Q @ np.diag(np.sign(np.diag(R)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    t = rng.uniform(-3.0, 3.0, size=3)
    return CameraModel.from_krt(K, Q, t, (1280, 720))


def test_optical_axis_projects_to_principal_point():
    cam = simple_camera()
    assert np.allclose(project(cam, (0.0, 0.0, 1.0)), [320.0, 240.0])


def test_pinhole_arithmetic():
    cam = simple_camera(f=100.0, cx=320.0, cy=240.0)
    pix = project(cam, (0.5, 0.0, 1.0))
    assert abs(pix[0] - 370.0) < 1e-12


def test_projection_matches_matrix_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        cam = random_camera(rng)
        p = rng.uniform(-5.0, 5.0, size=3)
        hom = cam.H @ np.append(p, 1.0)
        if abs(hom[2]) < 1e-6:
            continue
        assert np.allclose(project(cam, p), hom[:2] / hom[2], atol=1e-12)


def test_point_on_camera_plane_rejected():
    cam = simple_camera()
    with pytest.raises(CameraGeometryError):
        project(cam, (1.0, 1.0, 0.0))


def test_vanishing_point_identity_rotation():
    cam = simple_camera(cx=321.0, cy=239.0)
    assert np.allclose(vanishing_point_z(cam), [321.0, 239.0])


def test_vanishing_point_is_far_limit_of_vertical_line():
    cam = CameraModel.from_pose((0.0, 0.0, 2.0), yaw=0.3, pitch=0.35,
                                K=np.array([[500.0, 0, 640], [0, 500.0, 360], [0, 0, 1.0]]),
                                image_size=(1280, 720))
    v_z = vanishing_point_z(cam)
    far = project(cam, (0.0, 0.0, 1e6))
    assert np.allclose(v_z, far, atol=1e-3)


def test_vanishing_point_translation_invariance():
    K = np.array([[400.0, 0, 300], [0, 400.0, 200], [0, 0, 1.0]])
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(A)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    a = CameraModel.from_krt(K, Q, np.array([1.0, -2.0, 5.0]), (600, 400))
    b = CameraModel.from_krt(K, Q, np.array([-4.0, 0.5, 9.0]), (600, 400))
    assert np.allclose(vanishing_point_z(a), vanishing_point_z(b))


def test_vanishing_point_degenerate():
    # camera viewing direction perpendicular to world z with zero pitch:
    # H column 3 has h33 = 0
    K = np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1.0]])
    cam = CameraModel.from_pose((0.0, 0.0, 1.0), yaw=0.0, pitch=0.0, K=K,
                                image_size=(640, 480))
    with pytest.raises(CameraGeometryError):
        vanishing_point_z(cam)


def test_ground_recovery_round_trip():
    cam = CameraModel.from_pose((0.5, -0.3, 2.5), yaw=0.4, pitch=0.5,
                                K=np.array([[450.0, 0, 640], [0, 460.0, 360], [0, 0, 1.0]]),
                                image_size=(1280, 720))
    pix = project(cam, (2.0, 3.0, 0.0))
    rec = recover_ground_position(cam, pix, z_w=0.0)
    assert np.allclose(rec, [2.0, 3.0], atol=1e-6)


def test_ground_recovery_overhead_camera():
    # straight-down view from (0, 0, 5): principal point maps to the origin
    K = np.array([[500.0, 0, 320], [0, 500.0, 240], [0, 0, 1.0]])
    cam = CameraModel.from_pose((0.0, 0.0, 5.0), yaw=0.0, pitch=math.pi / 2.0,
                                K=K, image_size=(640, 480))
    rec = recover_ground_position(cam, (320.0, 240.0), z_w=0.0)
    assert np.allclose(rec, [0.0, 0.0], atol=1e-9)


def test_ground_recovery_matches_linear_solver():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 100:
        cam = random_camera(rng)
        pix = rng.uniform(0.0, 1000.0, size=2)
        z_w = rng.uniform(-1.0, 1.0)
        h = cam.H
        A = np.array([
            [h[2, 0] * pix[0] - h[0, 0], h[2, 1] * pix[0] - h[0, 1]],
            [h[2, 0] * pix[1] - h[1, 0], h[2, 1] * pix[1] - h[1, 1]],
        ])
        b = np.array([
            (h[0, 2] - h[2, 2] * pix[0]) * z_w + h[0, 3] - h[2, 3] * pix[0],
            (h[1, 2] - h[2, 2] * pix[1]) * z_w + h[1, 3] - h[2, 3] * pix[1],
        ])
        if abs(np.linalg.det(A)) < 1e-6:
            continue
        expected = np.linalg.solve(A, b)
        got = recover_ground_position(cam, pix, z_w)
        assert np.allclose(got, expected, atol=1e-9)
        checked += 1


def test_ground_recovery_degenerate_view():
    # proportional rows make the eliminated 2x2 system singular
    H = np.array([[1.0, 2.0, 0.0, 0.0],
                  [2.0, 4.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0]])
    cam = CameraModel(H=H, image_size=(10, 10))
    with pytest.raises(CameraGeometryError):
        recover_ground_position(cam, (0.0, 0.0), z_w=0.0)


def test_overlap_ratio_rectangle_arithmetic():
    a = BBox2D(0, 0, 10, 10, "person")
    b = BBox2D(5, 5, 15, 15, "person")
    far = BBox2D(10, 0, 20, 10, "person")  # shares an edge with a: no overlap
    ratios = overlap_ratios(box_array([a]), box_array([b, far]))
    assert ratios.shape == (1, 2)
    assert ratios[0, 0] == pytest.approx(0.25)
    assert ratios[0, 1] == 0.0


def test_overlap_ratio_containment_is_one():
    outer = BBox2D(0, 0, 100, 200, "person")
    inner = BBox2D(10, 150, 30, 199, "foot")
    assert overlap_ratios(box_array([inner]), box_array([outer])).tolist() == [[1.0]]
    assert overlap_ratios(box_array([outer]), box_array([inner])).tolist() == [[1.0]]


def test_overlap_ratio_bounds():
    rng = np.random.default_rng(23)
    a, b = [], []
    for _ in range(200):
        x = rng.uniform(0, 50, size=4)
        y = rng.uniform(0, 50, size=4)
        a.append(BBox2D(min(x[:2]), min(y[:2]), min(x[:2]) + 1 + x[2], min(y[:2]) + 1 + y[2],
                        "person"))
        b.append(BBox2D(min(x[2:]), min(y[2:]), min(x[2:]) + 1 + x[3], min(y[2:]) + 1 + y[3],
                        "person"))
    ratios = overlap_ratios(box_array(a), box_array(b))
    assert ratios.shape == (200, 200)
    assert ((ratios >= 0.0) & (ratios <= 1.0)).all()
    assert 0 < np.count_nonzero(ratios) < ratios.size
    # every entry equals the scalar form bit for bit
    assert ratios.tolist() == [[overlap_ratio(p, q) for q in b] for p in a]
    assert overlap_ratios(box_array([]), box_array(b)).shape == (0, 200)


def test_foot_inside_person_matches():
    person = BBox2D(100, 50, 160, 250, "person")
    foot = BBox2D(120, 230, 140, 250, "foot")
    v_z = np.array([130.0, 500.0])  # below the image: looking-down geometry
    pairs = associate_foot_to_parent([foot], [person], v_z)
    assert pairs == [(0, 0)]


def test_two_feet_two_persons_hungarian_beats_naive():
    # crossed ordering: the greedy/naive pairing is suboptimal
    p0 = BBox2D(100, 50, 160, 250, "person")
    p1 = BBox2D(300, 50, 360, 250, "person")
    f0 = BBox2D(305, 230, 325, 250, "foot")  # belongs to p1
    f1 = BBox2D(110, 230, 130, 250, "foot")  # belongs to p0
    v_z = np.array([230.0, 1500.0])
    pairs = associate_foot_to_parent([f0, f1], [p0, p1], v_z)
    assert pairs == brute_force_foot_to_parent([f0, f1], [p0, p1], v_z)

    score = np.zeros((2, 2))
    for i, foot in enumerate((f0, f1)):
        for j, person in enumerate((p0, p1)):
            rf = foot.center - v_z
            rp = person.center - v_z
            c = float(rf @ rp / (np.linalg.norm(rf) * np.linalg.norm(rp)))
            score[i, j] = overlap_ratio(foot, person) + c
    _, best = brute_force_assignment(-score)
    assert sorted(pairs) == sorted(best)
    assert sorted(pairs) == [(0, 1), (1, 0)]


def test_unmatched_disjoint_low_cosine_foot():
    person = BBox2D(100, 50, 160, 250, "person")
    stray = BBox2D(600, 60, 620, 80, "foot")  # no overlap, wrong direction
    v_z = np.array([130.0, 800.0])
    pairs = associate_foot_to_parent([stray], [person], v_z)
    assert pairs == []


def test_partial_matching_shape():
    persons = [BBox2D(i * 100, 50, i * 100 + 60, 250, "person") for i in range(3)]
    feet = [BBox2D(i * 100 + 20, 230, i * 100 + 40, 250, "foot") for i in range(5)]
    v_z = np.array([150.0, 2000.0])
    pairs = associate_foot_to_parent(feet, persons, v_z)
    assert len({i for i, _ in pairs}) == len(pairs)  # each foot at most once
    assert len({j for _, j in pairs}) == len(pairs)  # each parent at most once


def test_rotation_validation():
    K = np.eye(3)
    bad = np.eye(3) * 1.1
    with pytest.raises(ValueError):
        CameraModel.from_krt(K, bad, np.zeros(3), (10, 10))


def test_foot_to_parent_matches_per_pair_oracle():
    rng = np.random.default_rng(31)
    paired = 0
    for _ in range(200):
        def boxes(n, label, w, h):
            xy = rng.uniform(0.0, 600.0, size=(n, 2))
            return [BBox2D(x, y, x + rng.uniform(1.0, w), y + rng.uniform(1.0, h), label)
                    for x, y in xy]

        feet = boxes(int(rng.integers(0, 5)), "foot", 30.0, 20.0)
        persons = boxes(int(rng.integers(0, 4)), "person", 120.0, 300.0)
        v_z = rng.uniform(-200.0, 2000.0, size=2)
        if feet and rng.random() < 0.3:
            v_z = feet[0].center  # a ray of zero length: cosine 0
        pairs = associate_foot_to_parent(feet, persons, v_z)
        assert pairs == brute_force_foot_to_parent(feet, persons, v_z)
        paired += len(pairs)
    assert paired > 50
