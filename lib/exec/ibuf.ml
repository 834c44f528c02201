(* Growable unboxed [int] buffer: the index and id vectors columnar
   operators fill before gathering their output columns ({!Batch.gather}).
   Unlike [Gopt_util.Vec], the backing array is exposed so it can be handed
   to [Batch.gather] / [Batch.of_columns] without a copy. *)

type t = { mutable data : int array; mutable len : int }

let create ?(cap = 64) () = { data = Array.make (max cap 8) 0; len = 0 }

let length t = t.len
let data t = t.data
let clear t = t.len <- 0

let push t x =
  if t.len = Array.length t.data then begin
    let na = Array.make (2 * t.len) 0 in
    Array.blit t.data 0 na 0 t.len;
    t.data <- na
  end;
  Array.unsafe_set t.data t.len x;
  t.len <- t.len + 1

let get t i = t.data.(i)

(* a fresh array holding exactly the contents: for buffers whose storage is
   reused after the result is handed downstream *)
let to_array t = Array.sub t.data 0 t.len

(* no value occurs twice; allocation-free for the handful of edge ids an
   AllDistinct row carries, sort-based beyond that *)
let all_distinct t =
  let n = t.len and a = t.data in
  if n <= 16 then begin
    let ok = ref true and i = ref 1 in
    while !ok && !i < n do
      let x = a.(!i) in
      for j = 0 to !i - 1 do
        if a.(j) = x then ok := false
      done;
      incr i
    done;
    !ok
  end
  else begin
    let s = Array.sub a 0 n in
    Array.sort Int.compare s;
    let ok = ref true in
    for i = 1 to n - 1 do
      if s.(i) = s.(i - 1) then ok := false
    done;
    !ok
  end
