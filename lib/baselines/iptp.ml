(* IPIP's shim padded to the 20-byte IPTP header: its sequence, auth and
   mode fields, unused by the simulation, stay zero. *)

let encap, decap =
  Ipip.shim_tunnel ~proto:Ipv4.Proto.iptp ~magic:0x4954 (* "IT" *)
    ~shim_length:20
