(* calib — a fixed CPU and memory kernel that measures the host's speed.

     calib

   builds a hash table of generated strings, sorts its contents and
   concatenates a slice of them, then prints a checksum. It uses the
   standard library only, so no change to the program under test
   changes its work. run.py times it before each of the benchmark's
   phases and scales every time metric by a power of how much slower or
   faster its median run was than its reference time. *)

let entries = 40_000

let () =
  let state = ref 12_345 in
  let next () =
    state := ((!state * 1_103_515_245) + 12_345) land 0x3fff_ffff;
    !state
  in
  let table = Hashtbl.create 1024 in
  for i = 0 to entries - 1 do
    let key = Printf.sprintf "k%d-%d" (next () mod 50_000) i in
    Hashtbl.replace table key (i, string_of_int (next ()))
  done;
  let rows =
    Array.of_list
      (Hashtbl.fold (fun k (i, v) acc -> (k ^ v, i) :: acc) table [])
  in
  Array.sort compare rows;
  let buf = Buffer.create 1024 in
  Array.iteri (fun i (s, _) -> if i mod 7 = 0 then Buffer.add_string buf s) rows;
  Printf.printf "%d\n" (Buffer.length buf + Array.length rows)
