import io

import numpy as np
import pytest

from varibc import mesh as M


def shoelace(poly):
    # independent oracle for polygon area
    poly = np.asarray(poly, float)
    s = 0.0
    for i in range(len(poly)):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % len(poly)]
        s += x0 * y1 - x1 * y0
    return 0.5 * s


def gripper_geometry(h):
    out = np.array(
        [[0, 0], [0.1, 0], [0.1, 0.04], [0.08, 0.04], [0.08, 0.06], [0.1, 0.06],
         [0.1, 0.1], [0, 0.1]]
    )
    return M.DomainGeometry(outline=out, target_h=h)


class TestGenerateMesh:
    def test_unit_square_coarse(self):
        m = M.generate_mesh(M.rectangle_geometry(1.0, 1.0, 0.5))
        assert m.num_elements >= 8
        assert abs(m.areas.sum() - 1.0) <= 1e-9

    def test_gripper_element_count_matches_reference(self):
        m = M.generate_mesh(gripper_geometry(1.5e-3), thickness=0.01)
        assert 7400 <= m.num_elements <= 12300

    @pytest.mark.parametrize("h", [0.5, 0.23, 0.11])
    def test_area_conservation_with_hole(self, h):
        hole = np.array([[0.4, 0.4], [0.6, 0.4], [0.6, 0.6], [0.4, 0.6]])
        g = M.DomainGeometry(
            outline=np.array([[0, 0], [1.3, 0], [1.3, 1.0], [0, 1.0]]),
            target_h=h,
            holes=[hole],
        )
        m = M.generate_mesh(g)
        target = abs(shoelace(g.outline)) - abs(shoelace(hole))
        assert abs(m.areas.sum() - target) <= 1e-6 * target

    def test_centroids_and_volumes(self):
        m = M.generate_mesh(M.rectangle_geometry(1.0, 1.0, 0.3), thickness=2.0)
        ref = m.nodes[m.triangles].mean(axis=1)
        assert np.allclose(m.centroids, ref)
        assert np.allclose(m.volumes, m.areas * 2.0)
        assert np.all(m.areas > 0)

    def test_nondesign_tagging(self):
        band = np.array([[0.0, 0.8], [1.0, 0.8], [1.0, 1.0], [0.0, 1.0]])
        g = M.rectangle_geometry(1.0, 1.0, 0.1,
                                 nondesign_regions=[(band, M.SOLID_NONDESIGN)])
        m = M.generate_mesh(g)
        solid = m.element_tag == M.SOLID_NONDESIGN
        assert solid.any()
        assert np.all(m.centroids[solid, 1] > 0.8 - 1e-12)
        assert np.all(m.centroids[~solid, 1] < 0.8 + 1e-12)

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(M.MeshError):
            M.DomainGeometry(outline=np.array([[0, 0], [1, 0], [2, 0]]), target_h=0.1)

    def test_oversized_h_rejected(self):
        with pytest.raises(M.MeshError):
            M.generate_mesh(M.rectangle_geometry(1.0, 1.0, 5.0))


class TestBoundaryRecovery:
    """Holes whose near-horizontal edges are not Delaunay edges at first, so
    boundary recovery must split them with Steiner midpoints."""

    @pytest.fixture(params=[
        ([[0.25, 0.006], [0.8, 0.001], [0.8, 0.5], [0.25, 0.5]], 0.09, 2),
        ([[0.1, 0.02], [0.9, 0.005], [0.9, 0.5], [0.1, 0.5]], 0.12, 1),
    ])
    def recovered(self, request, monkeypatch):
        hole, h, rounds = request.param
        g = M.DomainGeometry(outline=np.array([[0, 0], [1, 0], [1, 1], [0, 1]]),
                             target_h=h, holes=[np.array(hole)])
        calls = []

        def counting_delaunay(points):
            calls.append(len(points))
            return delaunay(points)

        delaunay = M.Delaunay
        monkeypatch.setattr(M, "Delaunay", counting_delaunay)
        return g, M.generate_mesh(g), rounds, calls

    def test_resampled_segments_are_split_into_mesh_edges(self, recovered):
        g, m, _, _ = recovered
        edges = {tuple(sorted(e)) for t in m.triangles.tolist()
                 for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))}
        node_of = {tuple(p): i for i, p in enumerate(m.nodes.tolist())}
        n_inserted = 0
        for poly in [g.outline] + g.holes:
            pts, segs = M._resample_polygon(poly, g.target_h)
            for a, b in segs:
                p, q = pts[a], pts[b]
                d, r = q - p, m.nodes - p
                t = r @ d / (d @ d)
                off = np.abs(d[0] * r[:, 1] - d[1] * r[:, 0]) / np.hypot(*d)
                on = np.flatnonzero((off <= 1e-12) & (t >= -1e-12)
                                    & (t <= 1 + 1e-12))
                chain = on[np.argsort(t[on])].tolist()
                assert chain[0] == node_of[tuple(p)]
                assert chain[-1] == node_of[tuple(q)]
                n_inserted += len(chain) - 2
                for u, v in zip(chain[:-1], chain[1:]):
                    assert tuple(sorted((u, v))) in edges
        assert n_inserted > 0

    def test_area_tiles(self, recovered):
        g, m, _, _ = recovered
        assert abs(m.areas.sum() - g.area()) <= 1e-9 * g.area()

    def test_one_triangulation_per_round(self, recovered):
        # each midpoint round triangulates once, and the triangulation of
        # the last round, which finds every segment, is the mesh
        _, m, rounds, calls = recovered
        assert len(calls) == rounds + 1
        assert len(set(calls)) == rounds + 1


class TestNaca0012:
    def test_halfthickness_at_30_percent(self):
        # direct polynomial evaluation oracle
        s = 0.3
        c = (0.2969, -0.1260, -0.3516, 0.2843, -0.1015)
        want = 0.6 * (c[0] * np.sqrt(s) + c[1] * s + c[2] * s**2 + c[3] * s**3
                      + c[4] * s**4)
        assert abs(want - 0.06001720) < 1e-7  # frozen from the oracle
        got = M.naca0012_halfthickness(0.3) * 1.0
        assert abs(got - want) <= 1e-12

    def test_max_thickness_is_twelve_percent(self):
        s = np.linspace(1e-6, 1.0, 20001)
        tmax = 2.0 * M.naca0012_halfthickness(s).max()
        assert abs(tmax - 0.1200) < 1e-3

    def test_open_trailing_edge(self):
        assert M.naca0012_halfthickness(1.0) <= 1.3e-3

    def test_outline_polygon_area(self):
        g = M.naca0012_outline(1.0)
        # quadrature oracle on the polynomial, full chord
        s = np.linspace(0, 1, 200001)
        area = 2.0 * np.trapezoid(M.naca0012_halfthickness(s), s)
        assert abs(abs(shoelace(g.outline)) - area) < 1e-4 * area

    def test_truncation(self):
        g = M.naca0012_outline(0.2, leading_fraction=0.3)
        assert g.outline[:, 0].max() <= 0.06 + 1e-12
        assert g.outline[:, 0].min() >= -1e-12

    def test_invalid_args(self):
        with pytest.raises(M.MeshError):
            M.naca0012_outline(-1.0)
        with pytest.raises(M.MeshError):
            M.naca0012_outline(1.0, leading_fraction=0.0)


@pytest.fixture(scope="module")
def locate_mesh():
    return M.generate_mesh(M.rectangle_geometry(1.0, 1.0, 0.21))


@pytest.fixture(scope="module")
def shape_mesh():
    return M.generate_mesh(M.rectangle_geometry(1.0, 1.0, 0.17))


class TestLocatePoint:
    @pytest.fixture
    def mesh(self, locate_mesh):
        return locate_mesh

    def test_centroid_maps_to_its_element(self, mesh):
        for e in [0, 3, mesh.num_elements - 1]:
            el, lam = M.locate_point(mesh, mesh.centroids[e])
            assert el == e
            assert np.allclose(lam, 1.0 / 3.0, atol=1e-12)

    def test_vertex_tie_break_lowest_element(self, mesh):
        node = mesh.triangles[mesh.num_elements // 2][0]
        p = mesh.nodes[node]
        el, lam = M.locate_point(mesh, p)
        incident = [e for e in range(mesh.num_elements)
                    if node in mesh.triangles[e]]
        # brute-force oracle for containment under the same tolerance
        containing = []
        for e in incident:
            l = mesh.barycentric(e, p)
            if np.all(l >= -1e-12):
                containing.append(e)
        assert el == min(containing)
        assert np.isclose(lam.max(), 1.0, atol=1e-12)

    def test_random_points_reconstruct(self, mesh):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.02, 0.98, size=(1000, 2))
        for p in pts:
            el, lam = M.locate_point(mesh, p)
            tri = mesh.triangles[el]
            rec = lam @ mesh.nodes[tri]
            assert np.linalg.norm(rec - p) <= 1e-10
            assert abs(lam.sum() - 1.0) <= 1e-12
            assert np.all(lam >= -1e-12)

    def test_outside_raises(self, mesh):
        with pytest.raises(M.PointOutsideDomain):
            M.locate_point(mesh, (2.0, 2.0))


class TestShapeValues:
    @pytest.fixture
    def mesh(self, shape_mesh):
        return shape_mesh

    def test_point_at_node_selects_node(self, mesh):
        node = mesh.triangles[4][1]
        smp = M.shape_values_at(mesh, mesh.nodes[node])
        i = list(smp.nodes).index(node)
        w = np.zeros(3)
        w[i] = 1.0
        assert np.allclose(smp.weights, w, atol=1e-12)

    def test_linear_field_reproduced(self, mesh):
        a, b, c, d = 0.3, -1.2, 0.7, 2.1
        u = np.zeros(mesh.num_dofs)
        u[0::2] = a * mesh.nodes[:, 0] + b * mesh.nodes[:, 1]
        u[1::2] = c * mesh.nodes[:, 0] + d * mesh.nodes[:, 1]
        rng = np.random.default_rng(3)
        for p in rng.uniform(0.05, 0.95, size=(100, 2)):
            smp = M.shape_values_at(mesh, p)
            want = np.array([a * p[0] + b * p[1], c * p[0] + d * p[1]])
            assert np.allclose(smp.interpolate(u), want, atol=1e-12)
            H = smp.gradient(u)
            assert np.allclose(H, [[a, b], [c, d]], atol=1e-10)

    def test_partition_of_unity(self, mesh):
        rng = np.random.default_rng(11)
        for p in rng.uniform(0.0, 1.0, size=(200, 2)):
            smp = M.shape_values_at(mesh, p)
            assert abs(smp.weights.sum() - 1.0) <= 1e-12


class TestMeshIO:
    def test_round_trip(self):
        m = M.generate_mesh(M.rectangle_geometry(1.0, 0.5, 0.2), thickness=0.01)
        buf = io.StringIO()
        M.write_mesh(m, buf)
        buf.seek(0)
        m2 = M.read_mesh(buf, thickness=0.01)
        assert np.array_equal(m.triangles, m2.triangles)
        assert np.array_equal(m.element_tag, m2.element_tag)
        assert np.allclose(m.nodes, m2.nodes, rtol=0, atol=0)

    def test_comments_and_whitespace(self):
        text = """# a comment
nodes 4 triangles 2
0.0 0.0
1.0 0.0   # trailing comment
1.0 1.0
0.0 1.0
0 1 2 0
0 2 3 1
"""
        m = M.read_mesh(io.StringIO(text))
        assert m.num_nodes == 4 and m.num_elements == 2
        assert m.element_tag[1] == M.SOLID_NONDESIGN

    def test_duplicate_triangles_rejected(self):
        text = "nodes 3 triangles 2\n0 0\n1 0\n0 1\n0 1 2 0\n2 0 1 0\n"
        with pytest.raises(M.MeshError):
            M.read_mesh(io.StringIO(text))

    @pytest.mark.parametrize("text", [
        "nodes 3", "nodes 3 triangles 1\n0 0\n1 0\n0 1\n0 1 2\n",
        "nodes 3 triangles 1\n0 0\n1 0 # 0 1\n0 1 2 0\n"])
    def test_truncated_file_rejected(self, text):
        with pytest.raises(M.MeshError, match="truncated"):
            M.read_mesh(io.StringIO(text))

    def test_bad_header_rejected(self):
        with pytest.raises(M.MeshError, match="header"):
            M.read_mesh(io.StringIO("points 3 triangles 1\n0 0 1 0 0 1 0 1 2 0\n"))

    def test_bad_index_rejected(self):
        text = "nodes 3 triangles 1\n0 0\n1 0\n0 1\n0 1 5 0\n"
        with pytest.raises(M.MeshError):
            M.read_mesh(io.StringIO(text))


def test_clamp_to_mesh():
    m = M.generate_mesh(M.rectangle_geometry(1.0, 1.0, 0.3))
    inside = np.array([0.5, 0.5])
    assert np.allclose(M.clamp_to_mesh(m, inside), inside)
    out = M.clamp_to_mesh(m, np.array([2.0, 0.5]))
    M.locate_point(m, out)  # must not raise
