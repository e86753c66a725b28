import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toygrasp.assembler import (
    Color,
    GenerationConfig,
    SetComposition,
    ToySpec,
    assemble_toy,
    category_plan,
    connectivity_check,
    derive_seed,
    generate_set,
)
from toygrasp.errors import InvalidInput
from toygrasp.primitives import (
    PlacedPrimitive,
    Pose,
    PrimitiveKind,
    contains,
)


def small_config(**kwargs) -> GenerationConfig:
    composition = SetComposition(
        cuboids=2, spheres=1, cylinders=1, rings=1,
        two_part=2, three_part=1, four_part=1, five_part=1,
    )
    return GenerationConfig(composition=composition, **kwargs)


def toys_equal(a: ToySpec, b: ToySpec) -> bool:
    if (a.id, a.seed, a.color, len(a.parts)) != (b.id, b.seed, b.color, len(b.parts)):
        return False
    for pa, pb in zip(a.parts, b.parts):
        if pa.spec != pb.spec:
            return False
        if not np.array_equal(pa.pose.rotation, pb.pose.rotation):
            return False
        if not np.array_equal(pa.pose.translation, pb.pose.translation):
            return False
    return True


class TestAssembleToy:
    def test_single_part_at_origin(self):
        toy = assemble_toy(1, GenerationConfig(), np.random.default_rng(3))
        assert len(toy.parts) == 1
        assert np.array_equal(toy.parts[0].pose.translation, np.zeros(3))

    def test_first_part_always_at_origin(self):
        for seed in range(20):
            toy = assemble_toy(5, GenerationConfig(), np.random.default_rng(seed))
            assert np.array_equal(toy.parts[0].pose.translation, np.zeros(3))

    def test_five_parts_centroid_containment(self):
        for seed in range(20):
            toy = assemble_toy(5, GenerationConfig(), np.random.default_rng(seed))
            for k in range(1, 5):
                centroid = toy.parts[k].pose.translation
                assert any(
                    contains(toy.parts[j], centroid, tol=1e-12) for j in range(k)
                )

    def test_determinism(self):
        config = GenerationConfig()
        a = assemble_toy(4, config, np.random.default_rng(17))
        b = assemble_toy(4, config, np.random.default_rng(17))
        assert toys_equal(a, b)

    def test_pinned_kinds(self):
        toy = assemble_toy(
            1,
            GenerationConfig(),
            np.random.default_rng(0),
            kinds=(PrimitiveKind.RING,),
        )
        assert toy.parts[0].spec.kind is PrimitiveKind.RING

    def test_color_from_palette(self):
        config = GenerationConfig(palette=(Color.RED,))
        toy = assemble_toy(2, config, np.random.default_rng(1))
        assert toy.color is Color.RED

    def test_invalid_n_parts(self):
        with pytest.raises(ValueError):
            assemble_toy(0, GenerationConfig(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            assemble_toy(6, GenerationConfig(), np.random.default_rng(0))

    @settings(max_examples=60, deadline=None)
    @given(n_parts=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_connectivity_always_holds(self, n_parts, seed):
        toy = assemble_toy(n_parts, GenerationConfig(), np.random.default_rng(seed))
        assert connectivity_check(toy)


class TestConnectivityCheck:
    def test_detached_part_fails(self):
        rng = np.random.default_rng(5)
        toy = assemble_toy(2, GenerationConfig(), rng)
        far = PlacedPrimitive(
            toy.parts[1].spec,
            Pose(toy.parts[1].pose.rotation, np.array([1.0, 0.0, 0.0])),
        )
        broken = ToySpec(toy.id, toy.seed, (toy.parts[0], far), toy.color)
        assert not connectivity_check(broken)

    def test_single_part_trivially_connected(self):
        toy = assemble_toy(1, GenerationConfig(), np.random.default_rng(0))
        assert connectivity_check(toy)


class TestGenerateSet:
    def test_category_counts_and_ids(self):
        config = small_config(master_seed=9)
        toys = generate_set(config)
        assert len(toys) == sum(config.composition.counts().values()) == 10
        assert [t.id for t in toys] == [f"toy_{i:04d}" for i in range(10)]
        sizes = [len(t.parts) for t in toys]
        assert sizes == [1, 1, 1, 1, 1, 2, 2, 3, 4, 5]
        single_kinds = [t.parts[0].spec.kind for t in toys[:5]]
        assert single_kinds == [
            PrimitiveKind.CUBOID,
            PrimitiveKind.CUBOID,
            PrimitiveKind.SPHERE,
            PrimitiveKind.CYLINDER,
            PrimitiveKind.RING,
        ]

    def test_empty_composition(self):
        config = GenerationConfig(
            composition=SetComposition(0, 0, 0, 0, 0, 0, 0, 0)
        )
        assert generate_set(config) == []

    def test_negative_composition_rejected(self):
        with pytest.raises(InvalidInput, match="negative count for cuboids: -1"):
            SetComposition(cuboids=-1)

    def test_determinism_across_runs(self):
        a = generate_set(small_config(master_seed=123))
        b = generate_set(small_config(master_seed=123))
        assert all(toys_equal(x, y) for x, y in zip(a, b))

    def test_individual_toy_regenerable_from_derived_seed(self):
        config = small_config(master_seed=77)
        toys = generate_set(config)
        plan = category_plan(config.composition)
        for index in (0, 5, 9):
            n_parts, kinds = plan[index]
            seed = derive_seed(config.master_seed, index)
            rebuilt = assemble_toy(
                n_parts,
                config,
                np.random.default_rng(seed),
                kinds=kinds,
                toy_id=f"toy_{index:04d}",
                seed=seed,
            )
            assert toys_equal(toys[index], rebuilt)

    def test_different_master_seeds_differ(self):
        a = generate_set(small_config(master_seed=1))
        b = generate_set(small_config(master_seed=2))
        assert not all(toys_equal(x, y) for x, y in zip(a, b))

    def test_all_generated_toys_connected(self):
        for toy in generate_set(small_config(master_seed=3)):
            assert connectivity_check(toy)


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        seeds = [derive_seed(42, k) for k in range(1000)]
        assert seeds == [derive_seed(42, k) for k in range(1000)]
        assert len(set(seeds)) == 1000
        assert all(0 <= s < 2**64 for s in seeds)

    def test_index_zero_not_passthrough(self):
        assert derive_seed(42, 0) != 42


class TestGenerationConfigValidation:
    def test_empty_palette_rejected(self):
        with pytest.raises(ValueError):
            GenerationConfig(palette=())
