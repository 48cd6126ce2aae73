//! Property tests of the scenario text format, the one parser of
//! untrusted input: `scenario_from_str` never panics on mutated
//! generated files (byte flips, token swaps, edge-value tokens,
//! truncation), and parse∘print is the identity.

use proptest::prelude::*;
use uavdc_net::generator::{clustered, uniform, ScenarioParams};
use uavdc_net::io::{scenario_from_str, scenario_to_string};
use uavdc_net::units::JoulesPerMeter;
use uavdc_net::Scenario;

fn generated(seed: u64, scale: f64, layout: u8) -> Scenario {
    let params = ScenarioParams::default().scaled(scale);
    let mut s = match layout {
        0 => uniform(&params, seed),
        _ => clustered(&params, 3, 40.0, seed),
    };
    if layout == 2 {
        s.uav.travel_energy_override = Some(JoulesPerMeter(7.25));
    }
    s
}

/// SplitMix64 draw below `n`: the mutation choices of one case.
fn below(state: &mut u64, n: usize) -> usize {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) % n.max(1) as u64) as usize
}

/// Values the asserting constructors and `validate` must both survive.
const EDGE_TOKENS: [&str; 9] = ["-1", "0", "-0", "nan", "inf", "-inf", "1e308", "-", "radio"];

/// Applies one to four random edits to a scenario file.
fn mutate(text: &str, rng: &mut u64) -> String {
    let mut text = text.to_string();
    for _ in 0..1 + below(rng, 4) {
        let mut lines: Vec<Vec<String>> = text
            .lines()
            .map(|l| l.split_whitespace().map(str::to_string).collect())
            .collect();
        let spots: Vec<(usize, usize)> = (0..lines.len())
            .flat_map(|i| (0..lines[i].len()).map(move |j| (i, j)))
            .collect();
        let pick = |rng: &mut u64| spots[below(rng, spots.len())];
        match below(rng, 4) {
            0 if !text.is_empty() => {
                let mut bytes = text.into_bytes();
                let i = below(rng, bytes.len());
                bytes[i] ^= 1 << below(rng, 8);
                text = String::from_utf8_lossy(&bytes).into_owned();
                continue;
            }
            1 if !spots.is_empty() => {
                let ((i, j), (k, l)) = (pick(rng), pick(rng));
                let tmp = std::mem::take(&mut lines[i][j]);
                lines[i][j] = std::mem::replace(&mut lines[k][l], tmp);
            }
            2 if !spots.is_empty() => {
                let (i, j) = pick(rng);
                lines[i][j] = EDGE_TOKENS[below(rng, EDGE_TOKENS.len())].to_string();
            }
            _ => {
                text = text.chars().take(below(rng, text.len() + 1)).collect();
                continue;
            }
        }
        text = lines.iter().map(|l| l.join(" ") + "\n").collect();
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Mutated files never abort the process; whatever the parser accepts
    /// is valid and prints to a text that parses back to the same text.
    #[test]
    fn mutated_files_never_panic(
        seed in 0u64..1_000_000,
        scale in 0.002f64..0.02,
        layout in 0u8..3,
        mutation_seed in 0u64..u64::MAX,
    ) {
        let text = scenario_to_string(&generated(seed, scale, layout));
        if let Ok(s) = scenario_from_str(&mutate(&text, &mut { mutation_seed })) {
            prop_assert_eq!(s.validate(), Ok(()));
            let printed = scenario_to_string(&s);
            let back = scenario_from_str(&printed).map(|b| scenario_to_string(&b));
            prop_assert_eq!(back.ok(), Some(printed));
        }
    }

    /// parse∘print is the identity, bit for bit.
    #[test]
    fn print_then_parse_is_identity(
        seed in 0u64..1_000_000,
        scale in 0.002f64..0.1,
        layout in 0u8..3,
    ) {
        let s = generated(seed, scale, layout);
        let text = scenario_to_string(&s);
        let back = scenario_from_str(&text).unwrap();
        prop_assert_eq!((back.region, back.depot, back.radio, back.uav), (s.region, s.depot, s.radio, s.uav));
        prop_assert_eq!(&back.devices, &s.devices);
        prop_assert_eq!(scenario_to_string(&back), text);
    }
}
