type config = {
  name : string;
  gdps : int;
  memory_bytes : int;
  disk_profile : Disk.profile;
  costs : Costs.t;
}

let default_config ~name =
  {
    name;
    gdps = 2;
    memory_bytes = 1_000_000;
    disk_profile = Disk.small_profile;
    costs = Costs.default;
  }

let file_server_config ~name =
  {
    (default_config ~name) with
    memory_bytes = 2_500_000;
    disk_profile = Disk.server_profile;
  }

type t = {
  cfg : config;
  m_cpu : Cpu.t;
  m_disk : Disk.t;
}

let create eng cfg =
  {
    cfg;
    m_cpu = Cpu.create eng ~gdps:cfg.gdps;
    m_disk = Disk.create eng ~profile:cfg.disk_profile;
  }

let config m = m.cfg
let cpu m = m.m_cpu
let disk m = m.m_disk
