//! Property-based tests for the arithmetic substrate.

use proptest::prelude::*;

use raid_math::modp::{add_mod, div_mod, half_mod, inv_mod, mul_mod, pow_mod, reduce, sub_mod};
use raid_math::prime::Prime;
use raid_math::xor::{is_zero, xor_gather_into};

fn primes() -> impl Strategy<Value = Prime> {
    prop::sample::select(vec![3usize, 5, 7, 11, 13, 17, 19, 23, 29, 31])
        .prop_map(|p| Prime::new(p).unwrap())
}

proptest! {
    #[test]
    fn reduce_is_canonical(x in -10_000i64..10_000, p in primes()) {
        let r = reduce(x, p);
        prop_assert!(r < p.get());
        prop_assert_eq!(reduce(r as i64, p), r);
        prop_assert_eq!(reduce(x + p.get() as i64, p), r);
    }

    #[test]
    fn field_axioms_mod_p(a in -500i64..500, b in -500i64..500, c in -500i64..500, p in primes()) {
        prop_assert_eq!(add_mod(a, b, p), add_mod(b, a, p));
        prop_assert_eq!(mul_mod(a, b, p), mul_mod(b, a, p));
        prop_assert_eq!(
            mul_mod(a, add_mod(b, c, p) as i64, p),
            add_mod(mul_mod(a, b, p) as i64, mul_mod(a, c, p) as i64, p)
        );
        prop_assert_eq!(sub_mod(a, b, p), add_mod(a, -b, p));
    }

    #[test]
    fn division_inverts_multiplication(a in -500i64..500, b in 1i64..500, p in primes()) {
        prop_assume!(reduce(b, p) != 0);
        let q = div_mod(a, b, p);
        prop_assert_eq!(mul_mod(q as i64, b, p), reduce(a, p));
    }

    #[test]
    fn halving_is_division_by_two(x in -2_000i64..2_000, p in primes()) {
        prop_assert_eq!(half_mod(x, p), div_mod(x, 2, p));
        prop_assert_eq!(mul_mod(half_mod(x, p) as i64, 2, p), reduce(x, p));
    }

    #[test]
    fn fermat_holds(a in 1i64..1000, p in primes()) {
        prop_assume!(reduce(a, p) != 0);
        prop_assert_eq!(pow_mod(a, p.get() as u32 - 1, p), 1);
        prop_assert_eq!(mul_mod(inv_mod(a, p) as i64, a, p), 1);
    }

    #[test]
    fn xor_involution(data in prop::collection::vec(any::<u8>(), 0..256),
                      mask in prop::collection::vec(any::<u8>(), 0..256)) {
        let n = data.len().min(mask.len());
        let mut once = vec![0u8; n];
        xor_gather_into(&mut once, &[&data[..n], &mask[..n]]);
        let mut twice = vec![0xFFu8; n];
        xor_gather_into(&mut twice, &[&once, &mask[..n]]);
        prop_assert_eq!(&twice[..], &data[..n]);
    }

    #[test]
    fn xor_gather_order_independent(chunks in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 16..17), 1..6)) {
        let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
        let mut forward = vec![0u8; 16];
        xor_gather_into(&mut forward, &refs);
        let mut rev = refs.clone();
        rev.reverse();
        let mut backward = vec![0xFFu8; 16];
        xor_gather_into(&mut backward, &rev);
        prop_assert_eq!(&forward, &backward);
        // XOR of everything twice is zero.
        let mut doubled = refs.clone();
        doubled.extend(refs.iter().copied());
        let mut twice = vec![0u8; 16];
        xor_gather_into(&mut twice, &doubled);
        prop_assert!(is_zero(&twice));
    }
}
