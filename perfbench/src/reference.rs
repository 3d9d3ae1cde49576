//! Reference outputs recorded when the benchmark was added. Every operation's
//! output is checked against these; a mismatch counts as failed.

/// A march's recorded outcome: `C = 1` is required, and the link counts
/// (hence `L`) and `D` must match.
pub(crate) struct MarchRef {
    pub(crate) scenario: u8,
    pub(crate) preserved_links: usize,
    pub(crate) initial_links: usize,
    pub(crate) total_distance: f64,
}

const fn march_ref(
    scenario: u8,
    preserved_links: usize,
    initial_links: usize,
    total_distance: f64,
) -> MarchRef {
    MarchRef {
        scenario,
        preserved_links,
        initial_links,
        total_distance,
    }
}

/// `march-dense`: scenarios 1, 2 and 4 at 1296 robots, 10 ranges apart.
pub(crate) const MARCH_DENSE: [MarchRef; 3] = [
    march_ref(1, 45213, 48181, 1108343.5064993296),
    march_ref(2, 44011, 48181, 1057244.0714263436),
    march_ref(4, 42052, 48181, 1123833.1293743083),
];

/// `march-scale`: scenario 1 at 5184 robots and the paper's density.
pub(crate) const MARCH_SCALE: [MarchRef; 1] = [march_ref(1, 15376, 15426, 27155094.5436682)];

/// `serve-mix`: each scenario's plan at 144 robots, 10 ranges apart.
pub(crate) const SERVE: [MarchRef; 7] = [
    march_ref(1, 396, 409, 128550.95227868555),
    march_ref(2, 378, 409, 118582.09213444627),
    march_ref(3, 356, 409, 128844.13262836954),
    march_ref(4, 370, 409, 124286.63570900785),
    march_ref(5, 379, 409, 121008.53975336322),
    march_ref(6, 364, 404, 126382.46128213515),
    march_ref(7, 340, 408, 123439.06099251205),
];

/// `protocols`: FNV-1a digests of each run's output, per seed variant
/// where the run is seeded.
pub(crate) struct ProtocolRefs {
    /// `FaultSweepReport::to_json` of the 144-robot sweep.
    pub(crate) sweep_small: [u64; 8],
    /// `FaultSweepReport::to_json` of the 10^4-robot hop-field sweep.
    pub(crate) hop_large: [u64; 8],
    /// `L`, `D`, rounds and messages of the reliable objective run.
    pub(crate) objective: u64,
    /// Agreement, `L`, `D`, rounds and fault counts under 10% loss.
    pub(crate) objective_lossy: [u64; 8],
    /// Rounds, messages and disk positions of the distributed map.
    pub(crate) harmonic: u64,
}

pub(crate) const PROTOCOLS: ProtocolRefs = ProtocolRefs {
    sweep_small: [
        0xce05c50fe67d3715,
        0xa9131c20ae5d50cf,
        0x7ed139aaa1fa19a0,
        0x1fd3a199d0de9113,
        0xb0cd870d6180e499,
        0x1834343c36f38664,
        0x8cba70a735696400,
        0xe670b0aad1217efe,
    ],
    hop_large: [
        0x660e325780a363de,
        0x1520bb841886afb9,
        0xf464891f762fdfdb,
        0x957be6a580c9218f,
        0xc0e7e5e4f9f902d0,
        0xfe14c7d0f8a6540f,
        0xd789982bfccfb2af,
        0x0c05f0febdc6e195,
    ],
    objective: 0xb9eb8f2b61887fd5,
    objective_lossy: [
        0x02f02ad6ef4d84cc,
        0x93232b4ccb3a900a,
        0xe1630af19e48b61b,
        0x260c8f8cf5f5658c,
        0xa4bbf56ca19b2769,
        0x540427e7bf99291e,
        0x160c4ce291fcef04,
        0xe9976efa5569eb73,
    ],
    harmonic: 0x6e08356e818de1f9,
};
