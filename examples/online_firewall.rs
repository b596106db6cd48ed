//! The information firewall, live: drive schedulers through the online
//! game interface of `ncss::core::driver`, where policies physically
//! cannot see job volumes until completion.
//!
//! Run with: `cargo run --release --example online_firewall`

use ncss::core::driver::{run_online, ActiveCountPolicy, Decision, NcUniformPolicy, NcView, NonClairvoyantPolicy};
use ncss::prelude::*;
use ncss::sim::SpeedLaw;

/// A custom policy written against the public firewall API: serve the
/// FIFO head with power equal to (number of active jobs)², an
/// over-aggressive guess.
struct Eager;

impl NonClairvoyantPolicy for Eager {
    fn decide(&mut self, view: &NcView<'_>) -> Decision {
        let active = view.active();
        match active.first() {
            None => Decision { job: None, law: SpeedLaw::Idle },
            Some(&j) => {
                let m = active.len() as f64;
                Decision { job: Some(j), law: SpeedLaw::Constant { speed: view.law.speed_for_power(m * m) } }
            }
        }
    }
    fn name(&self) -> &'static str {
        "eager (P = m^2)"
    }
}

fn main() -> SimResult<()> {
    let law = PowerLaw::cube();
    let instance = Instance::new(vec![
        Job::unit_density(0.0, 2.0),
        Job::unit_density(0.3, 0.7),
        Job::unit_density(0.9, 1.4),
        Job::unit_density(4.0, 0.5),
    ])?;

    println!("online non-clairvoyant game, {} jobs, P(s) = s^3", instance.len());
    println!("(policies receive releases+densities and completion signals; never volumes)");
    println!();
    println!("{:<22} {:>10} {:>11} {:>12}", "policy", "energy", "frac flow", "frac obj");

    let mut nc = NcUniformPolicy::default();
    let mut ajc = ActiveCountPolicy;
    let mut eager = Eager;
    let policies: Vec<&mut dyn NonClairvoyantPolicy> = vec![&mut nc, &mut ajc, &mut eager];
    for policy in policies {
        let name = policy.name();
        let (_, ev) = run_online(&instance, law, policy)?;
        println!(
            "{name:<22} {:>10.4} {:>11.4} {:>12.4}",
            ev.objective.energy,
            ev.objective.frac_flow,
            ev.objective.fractional()
        );
    }

    // The paper's algorithm through the firewall is *identical* to the
    // direct closed-form simulation — the executable non-clairvoyance proof.
    let direct = run_nc_uniform(&instance, law)?;
    let (_, online) = run_online(&instance, law, &mut NcUniformPolicy::default())?;
    println!();
    println!(
        "firewalled NC vs direct simulation: {:.3e} relative difference",
        (online.objective.fractional() - direct.objective.fractional()).abs()
            / direct.objective.fractional()
    );
    Ok(())
}
