(* Packed-key and direct-mapped cache primitives shared by the BDD and ADD
   managers (CUDD-style kernel substrate).

   Node ids are capped at [id_limit] = 2^29 so that an (op, id, id) triple
   packs injectively into one non-negative OCaml int: op in bits 58..61,
   the first id in bits 29..57, the second in bits 0..28.  The cap is
   enforced unconditionally where ids are allocated (see {!check_id}), so
   packing can never collide — 2^29 nodes would need >16 GB of heap, far
   beyond anything this system can hold anyway. *)

let id_bits = 29
let id_limit = 1 lsl id_bits

let check_id n =
  if n >= id_limit then
    failwith "Dd: manager exceeds the 2^29-node packed-key capacity"

let check_var v =
  if v >= id_limit then
    invalid_arg "Dd: variable index exceeds the 2^29 packed-key capacity"

let pack op a b = (op lsl (2 * id_bits)) lor (a lsl id_bits) lor b
let pack2 a b = (a lsl id_bits) lor b

(* Slot hash for every table in the kernel: the splitmix64 finalizer, its
   multipliers with the top bit cleared to fit a 63-bit OCaml int (both
   stay odd).  Every input bit reaches the low output bits that a
   [land mask] slot index keeps.  A single multiply-and-fold is not enough
   for packed keys: the first id sits at bit 29, above the bits a 16-bit
   fold of the product carries into the slot, so keys differing only in it
   pile into a few slots and every apply recursion thrashes. *)
let mix x =
  let h = (x lxor (x lsr 30)) * 0x3F58476D1CE4E5B9 in
  let h = (h lxor (h lsr 27)) * 0x14D049BB133111EB in
  h lxor (h lsr 31)

let mix2 a b = mix (a lxor (b * 0x85EBCA77))

(* Unique-table hash of a (var, low id, high id) triple, shared by the BDD
   and ADD managers. *)
let uhash v l h = mix (v lxor (l * 0x85EBCA77) lxor (h * 0xC2B2AE3D))

(* --------------------------------------------------------------------- *)
(* Direct-mapped, lossy caches: fixed power-of-two capacity, one probe,
   colliding entries overwrite each other.  A probe is two array reads and
   an int compare — no allocation, no hashing of boxed keys.  [keys] holds
   the packed key (-1 = empty; packed keys are always >= 0). *)

type 'r cache = { keys : int array; vals : 'r array; mask : int }

let cache ~bits ~dummy =
  let n = 1 lsl bits in
  { keys = Array.make n (-1); vals = Array.make n dummy; mask = n - 1 }

let slot c key = mix key land c.mask

let clear c = Array.fill c.keys 0 (Array.length c.keys) (-1)

(* Two-word keys, for ternary operations (ite) whose three ids do not fit
   one packed int: [k1] is a two-id pack, [k2] the third id. *)

type 'r cache2 = { k1 : int array; k2 : int array; vals2 : 'r array; mask2 : int }

let cache2 ~bits ~dummy =
  let n = 1 lsl bits in
  {
    k1 = Array.make n (-1);
    k2 = Array.make n 0;
    vals2 = Array.make n dummy;
    mask2 = n - 1;
  }

let slot2 c k1 k2 = mix2 k1 k2 land c.mask2

let clear2 c = Array.fill c.k1 0 (Array.length c.k1) (-1)
