//! Cluster workloads: per-movie Poisson arrivals over a shared Zipf
//! catalog.
//!
//! The single-disk generator ([`crate::trace::generate`]) draws one
//! global Poisson process and samples a movie per arrival. A cluster
//! front end wants the converse decomposition: each movie is its own
//! Poisson process whose rate is the global time-of-day profile scaled by
//! the movie's Zipf popularity — the superposition is distributed
//! identically, but every movie's sub-trace is a function of `(seed,
//! movie)` **only**. Placement, dispatch, and the number of nodes are not
//! inputs, so the same seed yields the same trace no matter how the
//! cluster is sized or sharded — the property the cluster determinism
//! tests pin down.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vod_types::{ConfigError, DiskId, Seconds, VideoId};

use crate::poisson;
use crate::profile::RateProfile;
use crate::trace::{Arrival, Workload};
use crate::zipf::Zipf;

/// Configuration of a cluster workload: a shared movie catalog with
/// Zipf(θ) popularity, each movie arriving as an independent Poisson
/// process modulated by the paper's time-of-day profile.
#[derive(Clone, Debug)]
pub struct MultiMovieConfig {
    /// Catalog size. Movie rank `r` (1 = most popular) is `VideoId(r−1)`.
    pub movies: usize,
    /// Zipf skew of movie popularity (Wolf et al. report θ = 0.271 for
    /// real video popularity; θ = 1 is uniform).
    pub movie_theta: f64,
    /// Simulated horizon.
    pub duration: Seconds,
    /// Rate-change granularity of the time-of-day profile.
    pub slot_len: Seconds,
    /// Peak time of the profile (hour 9 in the paper).
    pub peak: Seconds,
    /// Zipf parameter of the time-of-day profile (§5.1; 1 = uniform).
    pub profile_theta: f64,
    /// Total expected arrivals over the horizon, across all movies.
    pub expected_arrivals: f64,
    /// Upper bound of the uniform viewing-time distribution.
    pub max_viewing: Seconds,
}

impl MultiMovieConfig {
    /// A paper-day cluster workload: 24 h horizon, 30-minute slots,
    /// hour-9 peak, uniform time profile, 120-minute max viewing.
    #[must_use]
    pub fn paper_cluster(movies: usize, movie_theta: f64, expected_arrivals: f64) -> Self {
        MultiMovieConfig {
            movies,
            movie_theta,
            duration: Seconds::from_hours(24.0),
            slot_len: Seconds::from_minutes(30.0),
            peak: Seconds::from_hours(9.0),
            profile_theta: 1.0,
            expected_arrivals,
            max_viewing: Seconds::from_minutes(120.0),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any constituent model rejects its
    /// parameters, or when the catalog has more movies than a
    /// [`VideoId`] can name.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // The last movie's id must fit its 32 bits; checked before the
        // popularity table is allocated.
        if let Some(last) = self.movies.checked_sub(1) {
            VideoId::try_from_index(last, "movies")?;
        }
        Zipf::new(self.movies, self.movie_theta)?;
        RateProfile::zipf_peaked(
            self.duration,
            self.slot_len,
            self.peak,
            self.profile_theta,
            self.expected_arrivals,
        )?;
        if !self.max_viewing.is_valid_duration() || self.max_viewing <= Seconds::ZERO {
            return Err(ConfigError::new("max_viewing", "must be positive"));
        }
        Ok(())
    }

    /// The movie-popularity distribution this config induces.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for invalid catalog parameters.
    pub fn popularity(&self) -> Result<Zipf, ConfigError> {
        Zipf::new(self.movies, self.movie_theta)
    }
}

/// Derives the sub-seed of one movie's Poisson process (splitmix64-style
/// mixing): a pure function of `(seed, movie)`, so sub-traces never
/// depend on catalog iteration order.
fn movie_seed(seed: u64, movie: u64) -> u64 {
    let mut z = seed ^ movie.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates a cluster workload from one seed: for each movie rank `r`,
/// a Poisson process with per-slot rates `profile · P_zipf(r)` and
/// uniform viewing times, merged into one time-sorted trace.
///
/// All arrivals carry `disk = 0`: the movie→node mapping is the cluster
/// placement layer's job, not the workload's. The trace is a function of
/// `(config, seed)` only — same seed ⇒ identical trace regardless of the
/// node count it is later dispatched across.
///
/// # Errors
///
/// Returns [`ConfigError`] when the configuration is invalid.
pub fn multi_movie(config: &MultiMovieConfig, seed: u64) -> Result<Workload, ConfigError> {
    config.validate()?;
    let popularity = Zipf::new(config.movies, config.movie_theta)?;
    let profile = RateProfile::zipf_peaked(
        config.duration,
        config.slot_len,
        config.peak,
        config.profile_theta,
        config.expected_arrivals,
    )?;

    let mut arrivals: Vec<Arrival> = Vec::new();
    let mut scaled_rates = Vec::with_capacity(profile.slot_rates().len());
    for rank in 1..=config.movies {
        let p = popularity.probability(rank);
        scaled_rates.clear();
        scaled_rates.extend(profile.slot_rates().iter().map(|r| r * p));
        let mut rng = StdRng::seed_from_u64(movie_seed(seed, rank as u64 - 1));
        let times = poisson::piecewise(
            &mut rng,
            &scaled_rates,
            profile.slot_len(),
            vod_types::Instant::ZERO,
        );
        let video = VideoId::try_from_index(rank - 1, "movies")?;
        for at in times {
            let viewing = Seconds::from_secs(rng.gen::<f64>() * config.max_viewing.as_secs_f64());
            arrivals.push(Arrival {
                at,
                disk: DiskId::new(0),
                video,
                viewing,
            });
        }
    }
    // Merge the per-movie processes. Poisson times tie with probability
    // zero, but the sort must still be a total order: break ties by
    // movie rank so the merged trace is unique.
    arrivals.sort_by(|a, b| {
        a.at.as_secs_f64()
            .total_cmp(&b.at.as_secs_f64())
            .then(a.video.raw().cmp(&b.video.raw()))
    });
    Ok(Workload { arrivals })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MultiMovieConfig {
        MultiMovieConfig::paper_cluster(20, 0.271, 500.0)
    }

    #[test]
    fn same_seed_is_bit_identical_regardless_of_node_count() {
        // Node count is deliberately not an input to generation: the
        // trace a 1-node and a 16-node cluster dispatch is the same
        // object. Two generations from one seed must agree bit-exactly.
        let a = multi_movie(&cfg(), 42).expect("valid multi-movie config");
        let b = multi_movie(&cfg(), 42).expect("valid multi-movie config");
        assert_eq!(a.arrivals.len(), b.arrivals.len());
        for (x, y) in a.arrivals.iter().zip(&b.arrivals) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.video, y.video);
            assert_eq!(x.viewing, y.viewing);
        }
        let c = multi_movie(&cfg(), 43).expect("valid multi-movie config");
        assert!(
            !(a.arrivals.len() == c.arrivals.len()
                && a.arrivals
                    .iter()
                    .zip(&c.arrivals)
                    .all(|(x, y)| x.at == y.at)),
            "different seeds should differ"
        );
    }

    #[test]
    fn trace_is_sorted_and_roughly_sized() {
        let w = multi_movie(&cfg(), 7).expect("valid multi-movie config");
        assert!(w.arrivals.windows(2).all(|p| p[0].at <= p[1].at));
        let n = w.len() as f64;
        assert!((n - 500.0).abs() < 5.0 * 500.0_f64.sqrt(), "count {n}");
    }

    #[test]
    fn popular_movies_draw_more_arrivals() {
        let w = multi_movie(&cfg(), 11).expect("valid multi-movie config");
        let count = |v: u32| w.arrivals.iter().filter(|a| a.video.raw() == v).count();
        // Rank 1 vs the tail: with θ = 0.271 the head dominates.
        assert!(count(0) > count(19), "zipf head should outdraw the tail");
    }

    #[test]
    fn movie_subtraces_are_stable_under_catalog_growth() {
        // Growing the catalog adds movies without disturbing existing
        // sub-seeds; only the shared rate normalization shifts. The
        // sub-seed derivation itself must be order-free.
        assert_ne!(movie_seed(1, 0), movie_seed(1, 1));
        assert_ne!(movie_seed(1, 0), movie_seed(2, 0));
        assert_eq!(movie_seed(9, 5), movie_seed(9, 5));
    }
}
