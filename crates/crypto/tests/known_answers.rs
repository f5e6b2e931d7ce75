//! Known-answer tests for the signing kernel.
//!
//! Every value below was recorded from the `u128 %` square-and-multiply
//! implementation and must never move: a signature, key image or public key
//! that changes for a fixed seed would invalidate every chain, WAL and
//! replay artifact already written. Any rewrite of exponentiation, hashing
//! to the group or the challenge transcript has to reproduce them exactly.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dams_crypto::{sign, verify, KeyPair, SchnorrGroup};

const MESSAGE: &[u8] = b"known-answer message";

/// One recorded signature: the ring of `ring_size` keys drawn from seed
/// `0x5EED_0000 + ring_size`, signed by slot `signer` with the signing RNG
/// seeded `1000 * ring_size + signer`.
struct SigCase {
    ring_size: usize,
    signer: usize,
    c0: u64,
    key_image: u64,
    responses: &'static [u64],
}

/// Ring sizes 1, 3 and 17, signer first, middle and last.
const SIGNATURES: [SigCase; 7] = [
    SigCase {
        ring_size: 1,
        signer: 0,
        c0: 705873690480709255,
        key_image: 730525813098643050,
        responses: &[491950395656847988],
    },
    SigCase {
        ring_size: 3,
        signer: 0,
        c0: 553362249916682969,
        key_image: 1473529930977742944,
        responses: &[931703267308089916, 654348317721474535, 182678522576294331],
    },
    SigCase {
        ring_size: 3,
        signer: 1,
        c0: 1112023976509031836,
        key_image: 454158694905969354,
        responses: &[202708050695507838, 758419349995385516, 483191087465538550],
    },
    SigCase {
        ring_size: 3,
        signer: 2,
        c0: 50825219571010931,
        key_image: 950286592561689930,
        responses: &[716212757245013284, 702862991464936764, 161396255450691646],
    },
    SigCase {
        ring_size: 17,
        signer: 0,
        c0: 613212779473703047,
        key_image: 2126039265321731648,
        responses: &[
            301889459113952615,
            592273129218319377,
            584617833199119217,
            565097587726438585,
            894132068773940566,
            829187043761695801,
            1040720149475998062,
            617786953390376704,
            968667921149287694,
            161504152351807723,
            869131023558615332,
            776691154473372355,
            689992507356726977,
            356927013651053148,
            919656676602317429,
            43638415302666021,
            673789699329799277,
        ],
    },
    SigCase {
        ring_size: 17,
        signer: 8,
        c0: 59082174386155028,
        key_image: 924735290146240962,
        responses: &[
            429910276854853740,
            200766622059551001,
            1089571981181658261,
            938327008829848054,
            700386376202312720,
            257201611535084666,
            948142250796585069,
            605395617179895470,
            147090018251062363,
            1021004509831924036,
            153661954883721680,
            1093254197880490425,
            868499647984015957,
            634706634362534862,
            676937194863031063,
            1118123300465802554,
            537229264333414911,
        ],
    },
    SigCase {
        ring_size: 17,
        signer: 16,
        c0: 1143136117380886280,
        key_image: 1825140546177080607,
        responses: &[
            742189115522832562,
            637811276032616457,
            507234440429638555,
            800230862644234514,
            577299616025162390,
            168778939395059821,
            216335683495648948,
            509239627077080376,
            84482677560512181,
            859461572876487452,
            623808689020075043,
            702489172785639366,
            540457339979466428,
            435045969603006448,
            770981468971663282,
            24604623768686082,
            629948201837097564,
        ],
    },
];

#[test]
fn sign_reproduces_recorded_signatures() {
    let grp = SchnorrGroup::default();
    for case in &SIGNATURES {
        let n = case.ring_size;
        let mut key_rng = StdRng::seed_from_u64(0x5EED_0000 + n as u64);
        let keys: Vec<KeyPair> = (0..n)
            .map(|_| KeyPair::generate(&grp, &mut key_rng))
            .collect();
        let ring: Vec<_> = keys.iter().map(|k| k.public).collect();
        let mut rng = StdRng::seed_from_u64(1000 * n as u64 + case.signer as u64);
        let sig = sign(&grp, MESSAGE, &ring, &keys[case.signer], &mut rng).unwrap();
        let at = format!("ring size {n}, signer {}", case.signer);
        assert_eq!(sig.c0.value(), case.c0, "c0, {at}");
        assert_eq!(sig.key_image.value(), case.key_image, "key image, {at}");
        let responses: Vec<u64> = sig.responses.iter().map(|s| s.value()).collect();
        assert_eq!(responses, case.responses, "responses, {at}");
        assert!(verify(&grp, MESSAGE, &ring, &sig), "{at}");
    }
}

#[test]
fn hash_to_element_reproduces_recorded_values() {
    let default = SchnorrGroup::default();
    let small = SchnorrGroup::new(23).unwrap();
    for (grp, expect) in [
        (
            default,
            &[
                164627467636714184u64,
                1537970989452226771,
                1339233481490494198,
                952569310587980186,
            ][..],
        ),
        (small, &[6, 18, 18, 13, 3, 13, 3, 12][..]),
    ] {
        let got: Vec<u64> = (0..expect.len() as u64)
            .map(|i| grp.hash_to_element(&[b"kat", &i.to_le_bytes()]).value())
            .collect();
        assert_eq!(got, expect, "p = {}", grp.modulus());
    }
}

#[test]
fn from_secret_reproduces_recorded_keys() {
    let default = SchnorrGroup::default();
    let q = default.order();
    // (raw secret, public key, key image)
    let default_keys = [
        (0, 4, 1036268299128410137),
        (1, 4, 1036268299128410137),
        (2, 16, 275622196944809117),
        (42, 2305842959158875983, 1086161171586440460),
        (q - 1, 576460752303424980, 1376432738649900504),
        (q + 1, 4, 1036268299128410137),
        (u64::MAX, 719480194625958050, 814763872376207740),
    ];
    let small = SchnorrGroup::new(23).unwrap();
    let small_keys = [
        (0, 4, 18),
        (1, 4, 18),
        (5, 12, 13),
        (10, 6, 13),
        (12, 4, 18),
    ];
    for (grp, keys) in [(default, &default_keys[..]), (small, &small_keys[..])] {
        for &(x, public, image) in keys {
            let kp = KeyPair::from_secret(&grp, x);
            assert_eq!(kp.public.value(), public, "public key, x = {x}");
            assert_eq!(kp.key_image(&grp).value(), image, "key image, x = {x}");
        }
    }
}
